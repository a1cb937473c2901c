#include "core/sparse_cc.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_set>

#include "common/intersect.h"
#include "common/math_util.h"
#include "common/parallel_for.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "core/part_tables.h"
#include "enumeration/clique_enumeration.h"
#include "graph/orientation.h"

namespace dcl {

namespace {

struct DirectedEdge {
  NodeId tail;
  NodeId head;
  bool fake;
};

}  // namespace

SparseCcResult sparse_cc_list(const Graph& g, const SparseCcConfig& cfg,
                              ListingOutput& out) {
  if (cfg.p < 3) throw std::invalid_argument("sparse_cc_list: p must be >= 3");
  SparseCcResult result;
  const NodeId n = g.node_count();
  if (n < 2) return result;
  // Telemetry: one span over the whole sparse CONGESTED-CLIQUE pipeline;
  // its virtual-time extent is synced from the clique ledger at each exit.
  TraceCollector* const telemetry = active_telemetry();
  SpanGuard cc_span(telemetry, "sparse-cc", "core");
  auto record_cc_metrics = [&](const RoundLedger& ledger) {
    if (telemetry == nullptr) return;
    cc_span.sync_to(ledger.total_rounds(), ledger.total_messages());
    MetricsRegistry& metrics = telemetry->metrics();
    metrics.counter_add("sparsecc.runs", 1);
    metrics.counter_add("sparsecc.fake_edges",
                        static_cast<std::uint64_t>(result.fake_edges));
    metrics.gauge_max("sparsecc.parts", result.parts);
    metrics.gauge_max("sparsecc.max_pair_bucket", result.max_pair_bucket);
    metrics.gauge_max("sparsecc.max_recv_load", result.max_recv_load);
  };
  Rng rng(cfg.seed);

  const int p = cfg.p;
  const int q = std::max<int>(
      1, static_cast<int>(floor_pow(n, 1.0 / static_cast<double>(p))));
  result.parts = q;

  // Arboricity-witness orientation: each edge has a unique sender (tail).
  const Orientation orient = degeneracy_orientation(g);
  std::vector<DirectedEdge> edges;
  edges.reserve(static_cast<std::size_t>(g.edge_count()));
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    edges.push_back({orient.tail(e), orient.head(e), false});
  }

  // Fake-edge padding (Section 4): bring m/n^{1/p} up to
  // pad_factor · n · log n. Fake edges are flagged and never listed.
  if (cfg.pad_factor > 0) {
    const double target_m = cfg.pad_factor * static_cast<double>(n) *
                            std::log2(static_cast<double>(std::max<NodeId>(2, n))) *
                            static_cast<double>(q);
    std::unordered_set<std::uint64_t> present;
    present.reserve(edges.size() * 2);
    for (const auto& de : edges) {
      const Edge e = make_edge(de.tail, de.head);
      present.insert((static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                          e.u))
                      << 32) |
                     static_cast<std::uint32_t>(e.v));
    }
    const auto possible = static_cast<double>(n) * (n - 1) / 2.0;
    while (static_cast<double>(edges.size()) < std::min(target_m, possible)) {
      const auto a = to_node(rng.next_below(static_cast<std::uint64_t>(n)));
      const auto b = to_node(rng.next_below(static_cast<std::uint64_t>(n)));
      if (a == b) continue;
      const Edge e = make_edge(a, b);
      const std::uint64_t key =
          (static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.u)) << 32) |
          static_cast<std::uint32_t>(e.v);
      if (!present.insert(key).second) continue;
      edges.push_back({e.u, e.v, true});
      ++result.fake_edges;
    }
  }

  // Round 1: every node announces its random part (one message to each
  // other node — exactly one CONGEST-CLIQUE round).
  std::vector<int> part(static_cast<std::size_t>(n));
  for (auto& pt : part) {
    pt = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(q)));
  }
  // Fault plane: the clique phases are accounting-level, so the session
  // wraps the two charge sites below (retry entries + resend escalation;
  // the listed cliques are unchanged — see docs/ROBUSTNESS.md).
  FaultSession faults;
  faults.plan = cfg.faults;

  CliqueNetwork net(n, cfg.routing);
  net.begin_phase("part-announce");
  // One representative message per ordered pair would be n(n-1) objects;
  // the cost is exactly 1 round in either accounting mode, so charge it
  // directly and skip materialization (the paper's "broadcast one value").
  net.end_phase();
  const std::uint64_t announce_msgs = static_cast<std::uint64_t>(n) *
                                      static_cast<std::uint64_t>(n - 1);
  faults.charge_exchange(net.ledger(), "part-announce(broadcast)", 1.0,
                         announce_msgs);

  // Bucket edges by part pair (Lemma 2.7 balance check) and compute loads.
  std::vector<std::vector<DirectedEdge>> bucket(
      checked_mul64(q, q));
  for (const auto& de : edges) {
    bucket[static_cast<std::size_t>(
               pair_index(part[static_cast<std::size_t>(de.tail)],
                          part[static_cast<std::size_t>(de.head)], q))]
        .push_back(de);
  }
  for (const auto& b : bucket) {
    result.max_pair_bucket =
        std::max(result.max_pair_bucket, static_cast<std::int64_t>(b.size()));
  }

  // Part multisets and the coverage table, sharded over the node index.
  // Shards write disjoint tuple slots; the per-shard coverage tables are
  // integer histograms whose sum is independent of shard interleaving, so
  // the merged table is bit-identical to the sequential build.
  std::vector<std::vector<int>> tuple(static_cast<std::size_t>(n));
  // Sized by shard_threads() alone — an upper bound on whatever shard
  // count parallel_for_shards derives, so the two can never disagree.
  std::vector<std::vector<std::int64_t>> shard_cover(
      static_cast<std::size_t>(shard_threads()));
  // Per-node work is q^2 multiset probes; the grain keeps small instances
  // inline (see parallel_for_shards).
  constexpr std::int64_t kCoverGrain = 128;
  parallel_for_shards(n, [&](int shard, std::int64_t lo, std::int64_t hi) {
    auto& local_cover = shard_cover[static_cast<std::size_t>(shard)];
    local_cover.assign(checked_mul64(q, q), 0);
    for (std::int64_t i = lo; i < hi; ++i) {
      auto& s = tuple[static_cast<std::size_t>(i)];
      s = part_multiset(static_cast<NodeId>(i), q, p);
      for (int a = 0; a < q; ++a) {
        for (int b = a; b < q; ++b) {
          if (multiset_covers(s, a, b)) {
            ++local_cover[static_cast<std::size_t>(pair_index(a, b, q))];
          }
        }
      }
    }
  }, kCoverGrain);
  std::vector<std::int64_t> cover(checked_mul64(q, q), 0);
  for (const auto& local_cover : shard_cover) {
    for (std::size_t idx = 0; idx < local_cover.size(); ++idx) {
      cover[idx] += local_cover[idx];
    }
  }

  // Edge distribution: each tail sends its edge to every covering node.
  // Loads are computed exactly; the Lenzen-mode round charge is
  // ceil(max(max_send, max_recv)/(n-1)) + O(1) (CliqueNetwork's formula).
  std::vector<std::int64_t> send_load(static_cast<std::size_t>(n), 0);
  std::vector<std::int64_t> recv_load(static_cast<std::size_t>(n), 0);
  std::uint64_t total_msgs = 0;
  for (const auto& de : edges) {
    const int idx = pair_index(part[static_cast<std::size_t>(de.tail)],
                               part[static_cast<std::size_t>(de.head)], q);
    send_load[static_cast<std::size_t>(de.tail)] +=
        cover[static_cast<std::size_t>(idx)];
  }
  // Receive loads are independent per node: shard over the node index
  // (disjoint recv_load slots; reads are all const).
  parallel_for_shards(n, [&](int, std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      for (int a = 0; a < q; ++a) {
        for (int b = a; b < q; ++b) {
          if (multiset_covers(tuple[static_cast<std::size_t>(i)], a, b)) {
            recv_load[static_cast<std::size_t>(i)] += static_cast<std::int64_t>(
                bucket[static_cast<std::size_t>(pair_index(a, b, q))].size());
          }
        }
      }
    }
  }, kCoverGrain);
  std::int64_t max_load = 0;
  for (NodeId i = 0; i < n; ++i) {
    max_load = std::max({max_load, send_load[static_cast<std::size_t>(i)],
                         recv_load[static_cast<std::size_t>(i)]});
    total_msgs +=
        static_cast<std::uint64_t>(recv_load[static_cast<std::size_t>(i)]);
  }
  result.max_recv_load = max_load;
  const std::int64_t distribution_rounds =
      (max_load == 0)
          ? 0
          : ceil_div(max_load, static_cast<std::int64_t>(n) - 1) + 2;
  faults.charge_exchange(net.ledger(), "edge-distribution(lenzen)",
                         static_cast<double>(distribution_rounds), total_msgs);

  if (!cfg.perform_listing) {
    result.ledger = net.ledger();
    result.lost_messages = result.ledger.lost_messages();
    record_cc_metrics(result.ledger);
    return result;
  }

  // Local listing at every node: real edges between its parts. Nodes with
  // identical part multisets receive identical edge sets; only the first
  // representative enumerates (simulation shortcut — loads above are per
  // node, and the union of outputs is unchanged). The representative of a
  // multiset is its minimum node id, read from the sorted flat table.
  const std::vector<NodeId> rep = representative_table(tuple, q);
  // Dense global→compact interning table, reset per representative by
  // walking the touched ids (to_global) instead of reallocating a map.
  std::vector<NodeId> to_compact(static_cast<std::size_t>(n), -1);
  std::vector<NodeId> to_global;
  for (NodeId i = 0; i < n; ++i) {
    const auto& s = tuple[static_cast<std::size_t>(i)];
    if (rep[static_cast<std::size_t>(i)] != i) continue;
    std::vector<Edge> local;
    for (const NodeId v : to_global) to_compact[static_cast<std::size_t>(v)] = -1;
    to_global.clear();
    auto intern = [&](NodeId v) {
      NodeId& slot = to_compact[static_cast<std::size_t>(v)];
      if (slot < 0) {
        slot = to_node(to_global.size());
        to_global.push_back(v);
      }
      return slot;
    };
    for (int a = 0; a < q; ++a) {
      for (int b = a; b < q; ++b) {
        if (!multiset_covers(s, a, b)) continue;
        for (const auto& de :
             bucket[static_cast<std::size_t>(pair_index(a, b, q))]) {
          if (de.fake) continue;  // marked fake edges are never listed
          local.push_back(make_edge(intern(de.tail), intern(de.head)));
        }
      }
    }
    if (static_cast<int>(local.size()) < p * (p - 1) / 2) continue;
    const Graph local_graph =
        Graph::from_edges(to_node(to_global.size()),
                          std::move(local));
    const std::vector<NodeId> flat = list_k_cliques_flat(local_graph, p);
    std::vector<NodeId> global(static_cast<std::size_t>(p));
    for (std::size_t at = 0; at < flat.size(); at += global.size()) {
      for (std::size_t x = 0; x < global.size(); ++x) {
        global[x] = to_global[static_cast<std::size_t>(flat[at + x])];
      }
      out.report(i, global);
    }
  }

  result.ledger = net.ledger();
  result.lost_messages = result.ledger.lost_messages();
  result.unique_cliques = out.unique_count();
  result.total_reports = out.total_reports();
  record_cc_metrics(result.ledger);
  return result;
}

}  // namespace dcl
