#include "dynamic/dynamic_lister.h"

#include <span>
#include <stdexcept>

#include "common/telemetry.h"

namespace dcl {

namespace {

void check_p(int p) {
  if (p < 2) {
    throw std::invalid_argument("DynamicLister: p must be at least 2");
  }
}

}  // namespace

DynamicLister::DynamicLister(NodeId n, int p)
    : p_((check_p(p), p)),
      graph_(n),
      orientation_(graph_),
      added_(n),
      removed_(n),
      scratch_(make_delta_scratch(p)) {}

DynamicLister::DynamicLister(const Graph& seed, int p)
    : p_((check_p(p), p)),
      graph_(DynamicGraph::from_graph(seed)),
      orientation_(graph_),
      added_(seed.node_count()),
      removed_(seed.node_count()),
      scratch_(make_delta_scratch(p)) {
  const std::vector<NodeId> flat = list_k_cliques_flat(seed, p);
  const auto width = static_cast<std::size_t>(p);
  for (std::size_t at = 0; at < flat.size(); at += width) {
    fingerprint_ +=
        CliqueSet::member_hash(std::span<const NodeId>(flat.data() + at, width));
  }
  count_ = flat.size() / width;
  stats_.clique_count = count_;
  stats_.fingerprint = fingerprint_;
  stats_.arboricity_witness = orientation_.max_out_degree();
}

CliqueSet DynamicLister::cliques() const {
  const std::vector<NodeId> flat = list_k_cliques_flat(graph_.snapshot(), p_);
  const auto width = static_cast<std::size_t>(p_);
  CliqueSet set;
  set.reserve(flat.size() / width);
  for (std::size_t at = 0; at < flat.size(); at += width) {
    set.insert(std::span<const NodeId>(flat.data() + at, width));
  }
  return set;
}

ListingDelta DynamicLister::apply(const UpdateBatch& batch) {
  // Telemetry: one span per maintenance batch. The dynamic structure is
  // purely local (no ledger), so the span's virtual-time extent is its work
  // units: the number of edge updates actually applied.
  TraceCollector* const telemetry = active_telemetry();
  SpanGuard batch_span(telemetry, "dynamic-batch", "dynamic");
  stats_ = DynamicBatchStats{};
  const auto neighbors = [this](NodeId x) { return graph_.neighbors(x); };

  // Deletions first: enumerate each doomed edge's cliques while the edge
  // is still present, then drop it — later deleted edges of the same
  // clique no longer see it complete, so each loss is recorded once.
  for (const Edge& e : batch.erase) {
    if (!graph_.has_edge(e.u, e.v)) {
      ++stats_.skipped_erases;
      continue;
    }
    for_each_clique_with_edge(
        neighbors, e.u, e.v, p_, scratch_,
        [&](std::span<const NodeId> clique) { removed_.append(clique); });
    const auto id = graph_.erase_edge(e.u, e.v);
    orientation_.on_erase(*id);
    ++stats_.erased_edges;
  }

  // Insertions: each new edge is enumerated in the graph that already
  // contains it (and every earlier insert), so a clique spanning several
  // inserted edges completes — and is recorded — exactly at the last one.
  // None of them is live yet: each holds the new edge.
  for (const Edge& e : batch.insert) {
    const auto [id, fresh] = graph_.insert_edge(e.u, e.v);
    if (!fresh) {
      ++stats_.skipped_inserts;
      continue;
    }
    orientation_.on_insert(id);
    for_each_clique_with_edge(
        neighbors, e.u, e.v, p_, scratch_,
        [&](std::span<const NodeId> clique) { added_.append(clique); });
    ++stats_.inserted_edges;
  }

  // A clique removed and re-added in this batch is in both runs: it cancels
  // out of the sums, and the merge leaves it out of the delta.
  const CliqueRun added = added_.run();
  const CliqueRun removed = removed_.run();
  count_ = count_ + added.size() - removed.size();
  fingerprint_ += added.fingerprint() - removed.fingerprint();
  ListingDelta delta;
  added.difference(removed, delta.added, delta.removed);
  added_.clear();
  removed_.clear();

  stats_.orientation_flips = orientation_.flush();
  stats_.cliques_added = delta.added.size();
  stats_.cliques_removed = delta.removed.size();
  stats_.clique_count = count_;
  stats_.fingerprint = fingerprint_;
  stats_.arboricity_witness = orientation_.max_out_degree();
  if (telemetry != nullptr) {
    batch_span.add_work(stats_.erased_edges + stats_.inserted_edges);
    MetricsRegistry& metrics = telemetry->metrics();
    metrics.counter_add("dynamic.batches", 1);
    metrics.counter_add("dynamic.inserted_edges", stats_.inserted_edges);
    metrics.counter_add("dynamic.erased_edges", stats_.erased_edges);
    metrics.counter_add("dynamic.skipped_inserts", stats_.skipped_inserts);
    metrics.counter_add("dynamic.skipped_erases", stats_.skipped_erases);
    metrics.counter_add("dynamic.cliques_added", stats_.cliques_added);
    metrics.counter_add("dynamic.cliques_removed", stats_.cliques_removed);
    metrics.counter_add("dynamic.orientation_flips", stats_.orientation_flips);
    metrics.gauge_set("dynamic.clique_count",
                      static_cast<std::int64_t>(stats_.clique_count));
    metrics.gauge_max("dynamic.arboricity_witness",
                      static_cast<std::int64_t>(stats_.arboricity_witness));
  }
  return delta;
}

}  // namespace dcl
