// Shared configuration, output collection, and result types for the
// distributed Kp-listing algorithms.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "congest/fault_plan.h"
#include "congest/round_ledger.h"
#include "enumeration/clique_log.h"
#include "expander/decomposition.h"
#include "graph/graph.h"

namespace dcl {

/// Collects the listing output of every node. The distributed guarantee
/// (Section 1) is that the *union* of all node outputs equals the set of Kp
/// instances; several nodes may legitimately report the same clique, so the
/// collector deduplicates and tracks the duplication factor. Reports are
/// appended to a CliqueLog and deduplicated once, at the first read of the
/// cliques (enumeration/clique_log.h).
class ListingOutput {
 public:
  explicit ListingOutput(NodeId n)
      : log_(n), per_node_reports_(static_cast<std::size_t>(n), 0) {}

  /// Records that `reporter` output `clique` (any vertex order). For p ≤ 8
  /// this is a sort, a pack and an append to the log.
  void report(NodeId reporter, std::span<const NodeId> clique) {
    const std::uint64_t reports =
        ++per_node_reports_[static_cast<std::size_t>(reporter)];
    max_reports_ = std::max(max_reports_, reports);
    ++total_reports_;
    log_.append(clique);
  }

  /// Folds a per-shard buffer into this collector: traffic statistics add,
  /// per-node totals add (the running maximum is recomputed from the
  /// merged totals, which is exactly where the sequential running max
  /// lands), and the shard's log is appended to this one. Deduplication
  /// happens at the first read, so the result is the same in any merge
  /// order — the contract the cluster-parallel ARB-LIST tail relies on.
  /// `shard` must have been constructed for the same node count.
  void merge_from(const ListingOutput& shard) {
    total_reports_ += shard.total_reports_;
    for (std::size_t v = 0; v < per_node_reports_.size(); ++v) {
      if (shard.per_node_reports_[v] == 0) continue;
      per_node_reports_[v] += shard.per_node_reports_[v];
      max_reports_ = std::max(max_reports_, per_node_reports_[v]);
    }
    log_.append(shard.log_);
  }

  /// The deduplicated cliques as a sorted run; the first read after a
  /// report sorts the log (CliqueLog::run). Valid until the next report.
  CliqueRun cliques() const { return log_.run(); }
  std::uint64_t total_reports() const { return total_reports_; }
  std::uint64_t unique_count() const { return cliques().size(); }
  double duplication_factor() const {
    const std::uint64_t unique = unique_count();
    return unique == 0 ? 0.0
                       : static_cast<double>(total_reports_) /
                             static_cast<double>(unique);
  }
  std::uint64_t reports_of(NodeId v) const {
    return per_node_reports_[static_cast<std::size_t>(v)];
  }
  /// Maintained incrementally at report time — O(1), not an O(n) rescan.
  std::uint64_t max_reports_per_node() const { return max_reports_; }

 private:
  CliqueLog log_;
  std::uint64_t total_reports_ = 0;
  std::uint64_t max_reports_ = 0;
  std::vector<std::uint64_t> per_node_reports_;
};

/// How the in-cluster lister charges the edge-distribution step.
///  * measured  — by the actual maximum load of the random partition (the
///    sparsity-aware accounting that Lemma 2.7 justifies);
///  * worst_case — by the oblivious schedule a non-sparsity-aware algorithm
///    needs: every node must budget for all potential vertex pairs between
///    its parts, O(p² (n/q)²) slots. This is the ablation contrast of
///    bench_e7_ablations (b).
enum class InClusterChargeMode { measured, worst_case };

/// Knobs for the Kp lister. The paper's thresholds are asymptotic formulas;
/// each carries a scale factor so laptop-sized instances can exercise every
/// mechanism.
struct KpConfig {
  int p = 4;

  /// Theorem 1.2 mode: C-light edges are never shipped into the cluster;
  /// light nodes list their own K4s. Requires p == 4.
  bool k4_fast = false;

  /// Heavy threshold: general mode, a node is C-heavy when it has more than
  /// heavy_scale · n^{1/4} neighbors in C (Section 2.4.1); in k4_fast mode
  /// the threshold is heavy_scale · A / n^{1/3} (Section 3).
  double heavy_scale = 1.0;

  /// Bad-node threshold: u ∈ C is bad when it has more than
  /// bad_scale · √n · log2(n) C-light neighbors. (The paper's constant is
  /// 100; at laptop scale that disables the mechanism entirely, so the
  /// default exercises it while tests check the |Er|-budget invariant.)
  double bad_scale = 1.0;

  /// Ablation switch (E7a): when false, bad nodes are never declared and
  /// every Em edge stays a goal edge.
  bool enable_bad_edges = true;

  /// Ablation switch (E7b): sparsity-aware vs oblivious in-cluster charge.
  InClusterChargeMode in_cluster_charge = InClusterChargeMode::measured;

  /// Stop the outer arboricity-halving loop once the out-degree bound A
  /// satisfies A ≤ stop_scale·n^{stop}, stop = max(3/4, p/(p+2)) (general)
  /// or 2/3 (k4_fast). Negative = derive from p; override for experiments.
  double stop_exponent_override = -1.0;

  /// Multiplier on the stopping threshold n^{stop}. The paper's value is
  /// 2·log2(n) (it stops when the coupled cluster degree n^δ = A/(2 log n)
  /// would drop below n^{stop}); at laptop scale that exceeds n itself, so
  /// the default 1.0 keeps the same asymptotic schedule with the polylog
  /// factor normalized away.
  double stop_scale = 1.0;

  /// The §2.2 coupling n^δ = A / (coupling_scale · log2 n). Paper value:
  /// coupling_scale = 2. The default 1.0 keeps clusters from degenerating
  /// at laptop n; the arboricity-halving invariant is enforced by
  /// measurement (the driver re-measures A and stops on non-progress).
  double coupling_scale = 1.0;

  /// Spectral/conductance knobs forwarded to the expander decomposition.
  DecompositionConfig decomposition;

  /// Safety cap on ARB-LIST iterations inside one LIST call.
  int max_arb_iterations = 64;

  /// Deterministic seed for all randomness (decomposition + partitions).
  std::uint64_t seed = 1;

  /// Optional fault plan (congest/fault_plan.h): drops/dups/delays are
  /// recovered by the charged ack/retransmit protocol (clique output stays
  /// bit-identical; budget-exhausted losses escalate to charged resends),
  /// crash events degrade the output to the survivor contract — every Kp
  /// of the alive-induced subgraph is still listed. Not owned; nullptr =
  /// fault-free (and then the lister's behavior and every charge are
  /// bit-identical to a build without the fault plane).
  FaultPlan* faults = nullptr;
};

/// Per-ARB-LIST-iteration trace (experiment E8).
struct ArbIterationTrace {
  int list_iteration = 0;      ///< outer LIST index
  int arb_iteration = 0;       ///< inner ARB-LIST index
  std::int64_t er_before = 0;
  std::int64_t er_after = 0;
  std::int64_t es_total = 0;
  std::int64_t goal_edges = 0;
  std::int64_t bad_edges = 0;
  std::int64_t clusters = 0;
  std::int64_t heavy_relationships = 0;  ///< (node, cluster) heavy pairs
  std::int64_t max_learned_edges = 0;    ///< Remark 2.10 quantity
  /// Step-5 tail scheduler diagnostics (the two-level work plan): the
  /// flattened (cluster, representative-range) items, the shard count the
  /// weighted allocator derived, the estimated work each shard received,
  /// and the total estimate — the bench container has one CPU, so balance
  /// of these estimates (max/mean across shards) IS the parallelism
  /// evidence, not wall-clock (ROADMAP "standing constraints").
  std::int64_t tail_work_items = 0;
  std::int64_t tail_shards = 0;
  std::vector<std::uint64_t> tail_shard_work;
  std::uint64_t tail_est_work_total = 0;
  double rounds = 0.0;
};

/// Per-LIST-iteration trace: the arboricity-halving schedule of §2.2.
struct ListIterationTrace {
  int list_iteration = 0;
  std::int64_t arboricity_bound_before = 0;  ///< A (max out-degree witness)
  std::int64_t arboricity_bound_after = 0;
  std::int64_t cluster_degree = 0;           ///< n^δ = A/(2 log n)
  std::int64_t edges_before = 0;
  std::int64_t edges_after = 0;
  double rounds = 0.0;
};

struct KpListResult {
  RoundLedger ledger;
  std::uint64_t unique_cliques = 0;
  std::uint64_t total_reports = 0;
  double duplication_factor = 0.0;
  std::vector<ListIterationTrace> list_traces;
  std::vector<ArbIterationTrace> arb_traces;
  /// Fault-plane summary (all zero / empty on a fault-free run): messages
  /// whose retry budget was exhausted (escalated to charged resends),
  /// crash-stop nodes detected, and whether any cluster fell back to
  /// broadcast listing after losing too many members.
  std::uint64_t lost_messages = 0;
  std::vector<NodeId> crashed_nodes;
  bool crash_degraded = false;
  double total_rounds() const { return ledger.total_rounds(); }
};

}  // namespace dcl
