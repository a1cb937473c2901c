// Batch-dynamic Kp maintenance: the stateful execution model.
//
// Every lister in this repository so far answers one snapshot and forgets.
// `DynamicLister` instead *maintains* the clique count and the
// order-independent fingerprint across an update stream: per batch it
// enumerates exactly the cliques touching inserted edges (delta kernels,
// enumeration/delta_kernels.h) and the cliques touching deleted edges, so
// the amortized per-batch cost is proportional to the cliques that changed
// — not to the graph (measured ≥5x over from-scratch recompute on
// small-batch churn; see docs/PERFORMANCE.md, "Dynamic maintenance").
//
// It holds no per-clique container between batches. Within a batch the
// erase path and the insert path each append to a `CliqueLog`
// (enumeration/clique_log.h); at batch end the two sorted unique runs
// update the count and fingerprint by their sizes and fingerprints, and
// one linear merge of them writes the sorted `ListingDelta`. The member
// set, when a caller wants it, is enumerated from `graph()` on demand.
//
// Batch semantics (mirrors graph/workloads.h UpdateBatch): deletions are
// applied first, one edge at a time against the current graph — each
// deleted edge's cliques are enumerated *before* the edge is removed, so a
// clique with several deleted edges is retracted exactly once, at the
// first of them. Insertions follow, also one at a time, each enumerated in
// the graph-so-far — a clique with several inserted edges appears exactly
// once, at the last of them. A clique retracted and re-added inside one
// batch (delete + re-insert churn) cancels out of the reported delta.
//
// Why a count and a fingerprint suffice: under these semantics every
// clique the erase path enumerates is live, and every clique the insert
// path enumerates is absent (it holds an edge that was not live), so
// count' = count - |removed run| + |added run| and the same for the
// fingerprint's wrapping sum. A clique removed and re-added in one batch
// lies in both runs and cancels out of both sums and of the delta.
//
// Invariant (the differential contract, enforced per checkpoint by
// tests/test_dynamic_lister.cpp and test_dynamic_sweep.cpp): after any
// prefix of batches, `clique_count()` and `fingerprint()` equal the size
// and CliqueSet fingerprint of a from-scratch static enumeration of
// `graph().snapshot()`, and the deltas reconcile consecutive recomputes.
#pragma once

#include <cstdint>
#include <vector>

#include "dynamic/dynamic_graph.h"
#include "dynamic/dynamic_orientation.h"
#include "enumeration/clique_enumeration.h"
#include "enumeration/clique_log.h"
#include "enumeration/delta_kernels.h"
#include "graph/workloads.h"

namespace dcl {

/// What one batch changed: canonical sorted clique lists. Churn inside the
/// batch (a clique removed and re-added, or vice versa) nets to zero and
/// appears in neither list.
struct ListingDelta {
  std::vector<Clique> added;
  std::vector<Clique> removed;
};

/// Per-batch observability counters; all deterministic for a fixed
/// (seed graph, stream) pair, so benches record them as fingerprints.
struct DynamicBatchStats {
  std::int64_t inserted_edges = 0;   ///< applied (non-duplicate) inserts
  std::int64_t erased_edges = 0;     ///< applied (present) erases
  std::int64_t skipped_inserts = 0;  ///< already-live edges in the batch
  std::int64_t skipped_erases = 0;   ///< not-live edges in the batch
  std::uint64_t cliques_added = 0;
  std::uint64_t cliques_removed = 0;
  std::uint64_t clique_count = 0;       ///< total after the batch
  std::uint64_t fingerprint = 0;        ///< member_hash sum after
  NodeId arboricity_witness = 0;        ///< orientation max out-degree
  std::uint64_t orientation_flips = 0;  ///< flips this batch's flush cost
};

class DynamicLister {
 public:
  /// Empty graph on n nodes.
  DynamicLister(NodeId n, int p);
  /// Seeded: enumerates `seed` once (static kernels) into the count and
  /// the fingerprint, and maintains both from there; no table is built.
  DynamicLister(const Graph& seed, int p);

  int p() const { return p_; }
  const DynamicGraph& graph() const { return graph_; }
  const DynamicOrientation& orientation() const { return orientation_; }
  /// The live cliques, enumerated from scratch on `graph().snapshot()` per
  /// call: an oracle view, not maintained state.
  CliqueSet cliques() const;
  std::uint64_t clique_count() const { return count_; }
  /// Equal to `cliques().fingerprint()`: the wrapping sum of
  /// CliqueSet::member_hash over the live cliques.
  std::uint64_t fingerprint() const { return fingerprint_; }

  /// Applies one batch; returns the net delta and refreshes last_stats().
  ListingDelta apply(const UpdateBatch& batch);

  const DynamicBatchStats& last_stats() const { return stats_; }

 private:
  int p_;
  DynamicGraph graph_;
  DynamicOrientation orientation_;
  std::uint64_t count_ = 0;
  std::uint64_t fingerprint_ = 0;
  // The batch's insert-path and erase-path cliques; empty between batches,
  // their capacity reused by the next.
  CliqueLog added_;
  CliqueLog removed_;
  DeltaScratch scratch_;
  DynamicBatchStats stats_;
};

}  // namespace dcl
