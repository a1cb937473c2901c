// Cross-module integration tests: full pipelines on the structured
// workload families, exercising exactly the mechanisms each family targets
// (see graph/workloads.h), with exact-listing validation end to end.
#include <gtest/gtest.h>

#include <sstream>
#include <tuple>

#include "baselines/baselines.h"
#include "core/detection.h"
#include "core/kp_lister.h"
#include "core/sparse_cc.h"
#include "enumeration/clique_enumeration.h"
#include "graph/graph_io.h"
#include "graph/workloads.h"
#include "test_util.h"

namespace dcl {
namespace {

void expect_exact_listing(const Graph& g, const KpConfig& cfg) {
  const CliqueSet truth{list_k_cliques(g, cfg.p)};
  ListingOutput out(g.node_count());
  const auto result = list_kp_collect(g, cfg, out);
  expect_result_valid(result);
  const CliqueSet listed(out.cliques().to_vector());
  const auto missing = truth.difference(listed);
  const auto extra = listed.difference(truth);
  EXPECT_TRUE(missing.empty()) << missing.size() << " missed of "
                               << truth.size();
  EXPECT_TRUE(extra.empty()) << extra.size() << " false positives";
}

// ---- Workload-family sweeps ------------------------------------------------

class WorkloadFamilySweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(WorkloadFamilySweep, ExactOnStructuredGraphs) {
  const auto [family, p, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 131 + 7);
  Graph g;
  KpConfig cfg;
  cfg.p = p;
  cfg.seed = static_cast<std::uint64_t>(seed);
  cfg.stop_scale = 0.15;
  switch (family) {
    case 0:
      g = clustered_workload(160, rng);
      break;
    case 1:
      g = periphery_workload(160, rng);
      cfg.coupling_scale = 0.25;  // periphery below the peel bar
      break;
    default:
      g = ring_of_cliques_workload(160, rng, 4, 0.5);
      break;
  }
  expect_exact_listing(g, cfg);
}

INSTANTIATE_TEST_SUITE_P(
    Families, WorkloadFamilySweep,
    ::testing::Combine(::testing::Values(0, 1, 2), ::testing::Values(3, 4, 5),
                       ::testing::Values(1, 2)));

TEST(Integration, K4FastOnPeripheryWorkload) {
  // The exact scenario Theorem 1.2 targets: K4s with two outside nodes.
  Rng rng(3);
  const Graph g = periphery_workload(180, rng);
  KpConfig cfg;
  cfg.p = 4;
  cfg.k4_fast = true;
  cfg.coupling_scale = 0.25;
  cfg.stop_scale = 0.15;
  expect_exact_listing(g, cfg);
}

TEST(Integration, HeavyAndLightMachineryBothEngage) {
  // On the periphery workload with the forced coupling, the ARB traces
  // must show heavy relationships and learned edges — i.e. the Challenge 1
  // machinery actually ran (not just the single-cluster fast path).
  Rng rng(4);
  const Graph g = periphery_workload(256, rng);
  KpConfig cfg;
  cfg.p = 4;
  cfg.coupling_scale = 0.25;
  cfg.stop_scale = 0.15;
  const auto result = list_kp(g, cfg);
  std::int64_t heavy = 0, learned = 0;
  for (const auto& t : result.arb_traces) {
    heavy += t.heavy_relationships;
    learned = std::max(learned, t.max_learned_edges);
  }
  EXPECT_GT(heavy + learned, 0)
      << "outside-edge machinery never engaged on its target workload";
}

TEST(Integration, RingWorkloadProducesMultipleArbIterations) {
  Rng rng(5);
  const Graph g = ring_of_cliques_workload(300, rng, 6, 0.5);
  KpConfig cfg;
  cfg.p = 4;
  cfg.stop_scale = 0.05;
  cfg.coupling_scale = 0.5;
  const auto result = list_kp(g, cfg);
  EXPECT_GE(result.arb_traces.size(), 2u)
      << "bridge edges should defer to a second ARB-LIST iteration";
  // Geometric decay: each ARB iteration shrinks Er by at least 4x
  // (Theorem 2.9 requires exactly that).
  for (const auto& t : result.arb_traces) {
    if (t.er_before > 0) {
      EXPECT_LE(4 * t.er_after, t.er_before)
          << "LIST " << t.list_iteration << " ARB " << t.arb_iteration;
    }
  }
}

// ---- IO round trips into the pipeline -------------------------------------

TEST(Integration, ListerOnSerializedGraph) {
  Rng rng(6);
  const Graph original = clustered_workload(120, rng);
  std::stringstream ss;
  write_edge_list(original, ss);
  const Graph loaded = read_edge_list(ss);
  KpConfig cfg;
  cfg.p = 4;
  const auto a = list_kp(original, cfg);
  const auto b = list_kp(loaded, cfg);
  EXPECT_EQ(a.unique_cliques, b.unique_cliques);
  EXPECT_DOUBLE_EQ(a.total_rounds(), b.total_rounds());
}

// ---- Cross-model agreement -------------------------------------------------

TEST(Integration, CongestAndCliqueModelsAgree) {
  Rng rng(7);
  const Graph g = periphery_workload(140, rng);
  const int p = 4;
  KpConfig congest_cfg;
  congest_cfg.p = p;
  ListingOutput congest_out(g.node_count());
  list_kp_collect(g, congest_cfg, congest_out);

  SparseCcConfig cc_cfg;
  cc_cfg.p = p;
  ListingOutput cc_out(g.node_count());
  sparse_cc_list(g, cc_cfg, cc_out);

  ListingOutput trivial_out(g.node_count());
  trivial_broadcast_list(g, p, trivial_out);

  EXPECT_TRUE(congest_out.cliques() == cc_out.cliques());
  EXPECT_TRUE(cc_out.cliques() == trivial_out.cliques());
}

TEST(Integration, DetectionConsistentWithCounting) {
  Rng rng(8);
  const Graph g = clustered_workload(140, rng);
  for (const int p : {4, 5, 6}) {
    KpConfig cfg;
    cfg.p = p;
    const auto det = detect_kp(g, cfg);
    const auto cnt = count_kp_distributed(g, cfg);
    EXPECT_EQ(det.found, cnt.count > 0) << "p=" << p;
    EXPECT_EQ(cnt.count, count_k_cliques(g, p)) << "p=" << p;
  }
}

// ---- Budget invariants under stress ---------------------------------------

TEST(Integration, ErBudgetAcrossFullRuns) {
  // Theorem 2.8's accounting requires every ARB call to respect the
  // |Êr| ≤ |Er|/4 decay; check it over a whole run on each family.
  for (const int family : {0, 1, 2}) {
    Rng rng(static_cast<std::uint64_t>(family) + 11);
    Graph g;
    switch (family) {
      case 0: g = clustered_workload(150, rng); break;
      case 1: g = periphery_workload(150, rng); break;
      default: g = ring_of_cliques_workload(150, rng, 5, 0.5); break;
    }
    KpConfig cfg;
    cfg.p = 4;
    cfg.stop_scale = 0.1;
    const auto result = list_kp(g, cfg);
    for (const auto& t : result.arb_traces) {
      if (t.er_before > 0 && t.clusters > 0) {
        EXPECT_LE(4 * t.er_after, t.er_before + 4 * t.bad_edges)
            << "family " << family;
      }
    }
  }
}

}  // namespace
}  // namespace dcl
