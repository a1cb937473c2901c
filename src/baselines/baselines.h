// Comparator algorithms from the paper's related work (Section 1 / 1.3).
//
// These reproduce the *comparison landscape* the paper positions itself in:
//  * `trivial_broadcast_list` — the folklore O(Δ) ⊆ O(n)-round CONGEST
//    lister (every node broadcasts its neighborhood; Remark 2.6's fallback
//    and the only prior sub-quadratic option for p ≥ 6);
//  * `oblivious_cc_list` — the deterministic Dolev–Lenzen–Peled-style
//    CONGESTED CLIQUE lister: fixed consecutive parts, every node scans all
//    potential vertex pairs between its assigned parts, Θ(n^{1-2/p} · p²)
//    rounds regardless of the input's sparsity. The contrast class for the
//    sparsity-aware Theorem 1.3;
//  * `one_shot_list` — an Eden-et-al-style structural baseline: a single
//    expander-decomposition pass (no arboricity iteration, no bad-edge
//    removal, oblivious in-cluster listing) followed by a neighborhood
//    broadcast of the leftover graph. This simplifies DISC'19's layered
//    algorithm but preserves the one-pass structure whose leftover-broadcast
//    cost the paper's iterated coupling eliminates;
//  * `chang_style_triangle_list` — the p = 3 instantiation of the paper's
//    own machinery, structurally the SODA'19 triangle lister (clusters list
//    every triangle with an edge inside; no outside-edge learning needed).
#pragma once

#include "congest/round_ledger.h"
#include "core/listing_types.h"
#include "graph/graph.h"

namespace dcl {

struct BaselineResult {
  RoundLedger ledger;
  std::uint64_t unique_cliques = 0;
  std::uint64_t total_reports = 0;
  double total_rounds() const { return ledger.total_rounds(); }
};

/// Every node sends its full adjacency list to each neighbor (max-degree Δ
/// rounds), then lists all Kp containing itself.
BaselineResult trivial_broadcast_list(const Graph& g, int p,
                                      ListingOutput& out);

/// Deterministic CONGESTED CLIQUE listing with fixed consecutive parts.
/// The schedule must budget for every potential pair between assigned
/// parts, so the round charge is ceil(p²·ceil(n/q)²/(n-1)) with
/// q = floor(n^{1/p}) — flat in m (the sparsity-oblivious horizontal line
/// of experiment E3).
BaselineResult oblivious_cc_list(const Graph& g, int p, ListingOutput& out);

/// The closed-form round cost of `oblivious_cc_list` (independent of the
/// input's edges — that is the point of the comparison).
double oblivious_cc_rounds(NodeId n, int p);

/// One decomposition pass at cluster degree ~ n^{delta} (default 2/3), no
/// iteration, oblivious in-cluster listing, then a neighborhood broadcast
/// of whatever the pass did not remove.
BaselineResult one_shot_list(const Graph& g, int p, ListingOutput& out,
                             double delta = 2.0 / 3.0,
                             std::uint64_t seed = 1);

/// The p = 3 special case of the paper's machinery (SODA'19-style).
BaselineResult chang_style_triangle_list(const Graph& g, ListingOutput& out,
                                         std::uint64_t seed = 1);

}  // namespace dcl
