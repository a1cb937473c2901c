// Sparsity-aware Kp listing in the CONGESTED CLIQUE (Theorem 1.3).
//
// The byproduct algorithm of Section 4: Θ̃(1 + m/n^{1+2/p}) rounds for every
// p ≥ 3. It is the Section 2.4.3 in-cluster lister applied to the whole
// clique network:
//  * the vertex set is randomly partitioned into q = floor(n^{1/p}) parts
//    (each node draws and announces its own part);
//  * node i is assigned the p parts given by the base-q digits of i
//    (n^{1/p}-radix representation) and learns every edge between them;
//  * edges are delivered by their tails (an arboricity-witness degeneracy
//    orientation, so every edge has exactly one sender) to every node whose
//    part multiset covers the edge's part pair;
//  * load balance is Lemma 2.7: with high probability each part pair holds
//    O(m/n^{2/p}) edges, so by Lenzen routing each node receives
//    O(p²·m/n^{2/p}) messages = O(p²·m/n^{1+2/p} + 1) rounds.
//
// Fake-edge padding (Section 4): when m/n^{1/p} < pad_factor·n·log n the
// paper pads with marked fake edges so Lemma 2.7's conditions hold; padding
// only matters in the regime where the round count is Õ(1) anyway. The
// paper's factor is 20; that padds every laptop-scale instance, so the knob
// defaults to 0 (off) and the mechanism is exercised separately in tests.
#pragma once

#include <cstdint>

#include "congest/clique_network.h"
#include "core/listing_types.h"
#include "graph/graph.h"

namespace dcl {

struct SparseCcConfig {
  int p = 3;
  std::uint64_t seed = 1;
  /// Fake-edge padding factor (paper: 20); <= 0 disables padding.
  double pad_factor = 0.0;
  CliqueRoutingMode routing = CliqueRoutingMode::lenzen;
  /// When false, skip the per-node local enumeration and only compute the
  /// communication loads / round costs. Used by density sweeps whose dense
  /// end would materialize millions of cliques; correctness is covered by
  /// the test suite at listing-enabled sizes.
  bool perform_listing = true;
  /// Optional fault plan (congest/fault_plan.h). The clique phases are
  /// accounting-level, so recoverable faults surface as charged retry
  /// entries and budget-exhausted losses as charged resends — the listed
  /// cliques are unchanged. Not owned; nullptr = fault-free.
  FaultPlan* faults = nullptr;
};

struct SparseCcResult {
  RoundLedger ledger;
  std::uint64_t unique_cliques = 0;
  std::uint64_t total_reports = 0;
  std::int64_t parts = 0;
  std::int64_t fake_edges = 0;
  std::int64_t max_pair_bucket = 0;  ///< Lemma 2.7 quantity (real+fake)
  std::int64_t max_recv_load = 0;
  /// Messages whose retry budget was exhausted (escalated to resends).
  std::uint64_t lost_messages = 0;
  double total_rounds() const { return ledger.total_rounds(); }
};

/// Lists every Kp of `g` in the simulated CONGESTED CLIQUE; node outputs go
/// to `out` (union over nodes = all Kp instances).
SparseCcResult sparse_cc_list(const Graph& g, const SparseCcConfig& cfg,
                              ListingOutput& out);

}  // namespace dcl
