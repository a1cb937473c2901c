#include "dynamic/dynamic_lister.h"

#include <algorithm>
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
      scratch_(make_delta_scratch(p)) {}

DynamicLister::DynamicLister(const Graph& seed, int p)
    : p_((check_p(p), p)),
      graph_(DynamicGraph::from_graph(seed)),
      orientation_(graph_),
      scratch_(make_delta_scratch(p)) {
  const std::vector<NodeId> flat = list_k_cliques_flat(seed, p);
  const auto width = static_cast<std::size_t>(p);
  cliques_.reserve(flat.size() / width);
  for (std::size_t at = 0; at < flat.size(); at += width) {
    cliques_.insert(std::span<const NodeId>(flat.data() + at, width));
  }
  stats_.clique_count = cliques_.size();
  stats_.fingerprint = cliques_.fingerprint();
  stats_.arboricity_witness = orientation_.max_out_degree();
}

ListingDelta DynamicLister::apply(const UpdateBatch& batch) {
  // Telemetry: one span per maintenance batch. The dynamic structure is
  // purely local (no ledger), so the span's virtual-time extent is its work
  // units: the number of edge updates actually applied.
  TraceCollector* const telemetry = active_telemetry();
  SpanGuard batch_span(telemetry, "dynamic-batch", "dynamic");
  stats_ = DynamicBatchStats{};
  CliqueSet batch_added;
  CliqueSet batch_removed;
  const auto neighbors = [this](NodeId x) { return graph_.neighbors(x); };

  // Deletions first: enumerate each doomed edge's cliques while the edge
  // is still present, then drop it — later deleted edges of the same
  // clique no longer see it complete, so each loss is recorded once.
  for (const Edge& e : batch.erase) {
    if (!graph_.has_edge(e.u, e.v)) {
      ++stats_.skipped_erases;
      continue;
    }
    for_each_clique_with_edge(neighbors, e.u, e.v, p_, scratch_,
                              [&](std::span<const NodeId> clique) {
                                if (cliques_.erase(clique)) {
                                  batch_removed.insert(clique);
                                }
                              });
    const auto id = graph_.erase_edge(e.u, e.v);
    orientation_.on_erase(*id);
    ++stats_.erased_edges;
  }

  // Insertions: each new edge is enumerated in the graph that already
  // contains it (and every earlier insert), so a clique spanning several
  // inserted edges completes — and is recorded — exactly at the last one.
  for (const Edge& e : batch.insert) {
    const auto [id, fresh] = graph_.insert_edge(e.u, e.v);
    if (!fresh) {
      ++stats_.skipped_inserts;
      continue;
    }
    orientation_.on_insert(id);
    for_each_clique_with_edge(neighbors, e.u, e.v, p_, scratch_,
                              [&](std::span<const NodeId> clique) {
                                if (cliques_.insert(clique)) {
                                  // Re-added after a removal earlier in
                                  // this batch: pure churn, net zero.
                                  if (!batch_removed.erase(clique)) {
                                    batch_added.insert(clique);
                                  }
                                }
                              });
    ++stats_.inserted_edges;
  }

  stats_.orientation_flips = orientation_.flush();
  stats_.cliques_added = batch_added.size();
  stats_.cliques_removed = batch_removed.size();
  stats_.clique_count = cliques_.size();
  stats_.fingerprint = cliques_.fingerprint();
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

  ListingDelta delta;
  delta.added = batch_added.to_vector();
  delta.removed = batch_removed.to_vector();
  std::sort(delta.added.begin(), delta.added.end());
  std::sort(delta.removed.begin(), delta.removed.end());
  return delta;
}

}  // namespace dcl
