#include "core/broadcast_listing.h"

#include <algorithm>
#include <stdexcept>

#include "enumeration/clique_enumeration.h"

namespace dcl {

BroadcastListingStats broadcast_listing(const BroadcastListingArgs& args,
                                        RoundLedger& ledger,
                                        ListingOutput& out) {
  const Graph& base = *args.base;
  if (args.mode == BroadcastMode::out_edges && args.away == nullptr) {
    throw std::invalid_argument("broadcast_listing: out_edges needs away bits");
  }
  const auto is_current = [&](EdgeId e) {
    return args.current == nullptr || (*args.current)[e];
  };

  // Per-node current degree and out-degree.
  std::vector<std::int64_t> deg(static_cast<std::size_t>(base.node_count()),
                                0);
  std::vector<std::int64_t> outdeg(static_cast<std::size_t>(base.node_count()),
                                   0);
  std::int64_t current_edges = 0;
  for (EdgeId e = 0; e < base.edge_count(); ++e) {
    if (!is_current(e)) continue;
    ++current_edges;
    const Edge& ed = base.edge(e);
    ++deg[static_cast<std::size_t>(ed.u)];
    ++deg[static_cast<std::size_t>(ed.v)];
    if (args.mode == BroadcastMode::out_edges) {
      const NodeId tail = (*args.away)[e] ? ed.u : ed.v;
      ++outdeg[static_cast<std::size_t>(tail)];
    }
  }

  // Exact exchange cost: on directed current edge (u→v) node u sends its
  // list (out-edges or whole neighborhood), so the congestion is the list
  // length; the phase costs the max, and Σ list lengths messages.
  BroadcastListingStats stats;
  const auto& load_of =
      (args.mode == BroadcastMode::out_edges) ? outdeg : deg;
  for (EdgeId e = 0; e < base.edge_count(); ++e) {
    if (!is_current(e)) continue;
    const Edge& ed = base.edge(e);
    stats.rounds = std::max({stats.rounds,
                             load_of[static_cast<std::size_t>(ed.u)],
                             load_of[static_cast<std::size_t>(ed.v)]});
    stats.messages +=
        static_cast<std::uint64_t>(load_of[static_cast<std::size_t>(ed.u)] +
                                   load_of[static_cast<std::size_t>(ed.v)]);
  }
  if (current_edges > 0) {
    ledger.charge_exchange(args.label, static_cast<double>(stats.rounds),
                           stats.messages);
  }

  // Equivalent local listing: every Kp of the current graph is known to all
  // its members; report once with the minimum-id member as reporter.
  std::vector<Edge> edges;
  std::vector<EdgeId> kept_ids;
  edges.reserve(static_cast<std::size_t>(current_edges));
  kept_ids.reserve(static_cast<std::size_t>(current_edges));
  for (EdgeId e = 0; e < base.edge_count(); ++e) {
    if (!is_current(e)) continue;
    edges.push_back(base.edge(e));
    kept_ids.push_back(e);
  }
  const Graph current_graph =
      Graph::from_edges(base.node_count(), std::move(edges));
  const std::vector<NodeId> flat = list_k_cliques_flat(current_graph, args.p);
  const auto width = static_cast<std::size_t>(args.p);
  for (std::size_t at = 0; at < flat.size(); at += width) {
    const std::span<const NodeId> clique(flat.data() + at, width);
    if (args.require_edge != nullptr) {
      bool ok = false;
      for (std::size_t x = 0; x < clique.size() && !ok; ++x) {
        for (std::size_t y = x + 1; y < clique.size() && !ok; ++y) {
          const auto eid = base.edge_id(clique[x], clique[y]);
          if (eid && (*args.require_edge)[*eid]) {
            ok = true;
          }
        }
      }
      if (!ok) continue;
    }
    out.report(clique.front(), clique);  // sorted: the minimum-id member
    ++stats.cliques_reported;
  }
  return stats;
}

}  // namespace dcl
