#include "core/kp_lister.h"

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "enumeration/clique_enumeration.h"
#include "graph/generators.h"
#include "test_util.h"

namespace dcl {
namespace {

/// The paper's correctness contract: the union of node outputs equals the
/// exact Kp set — no misses, no false positives.
void expect_exact(const Graph& g, const KpConfig& cfg) {
  const CliqueSet truth{list_k_cliques(g, cfg.p)};
  ListingOutput out(g.node_count());
  const auto result = list_kp_collect(g, cfg, out);
  expect_result_valid(result);
  const CliqueSet listed(out.cliques().to_vector());
  const auto missing = truth.difference(listed);
  const auto extra = listed.difference(truth);
  EXPECT_TRUE(missing.empty())
      << missing.size() << " cliques missed (of " << truth.size() << ")";
  EXPECT_TRUE(extra.empty()) << extra.size() << " false positives";
  EXPECT_EQ(result.unique_cliques, truth.size());
  EXPECT_GE(result.total_reports, result.unique_cliques);
}

// The end-to-end parameter sweeps (KpListerSweep / K4FastSweep) live in
// test_kp_lister_sweep.cpp, labeled `slow` — run `ctest -LE slow` to skip.

// ---- Adversarial / closed-form graphs ------------------------------------

TEST(KpLister, CompleteGraph) {
  KpConfig cfg;
  cfg.p = 4;
  expect_exact(complete_graph(24), cfg);
}

TEST(KpLister, CompleteGraphP6) {
  KpConfig cfg;
  cfg.p = 6;
  expect_exact(complete_graph(16), cfg);
}

TEST(KpLister, BipartiteHasNoCliques) {
  KpConfig cfg;
  cfg.p = 3;
  const Graph g = complete_bipartite(20, 20);
  ListingOutput out(g.node_count());
  list_kp_collect(g, cfg, out);
  EXPECT_EQ(out.unique_count(), 0u);
}

TEST(KpLister, PlantedCliqueInSparseNoise) {
  Rng rng(5);
  const auto planted = planted_clique(120, 10, 0.02, rng);
  KpConfig cfg;
  cfg.p = 5;
  const CliqueSet truth{list_k_cliques(planted.graph, 5)};
  ListingOutput out(planted.graph.node_count());
  list_kp_collect(planted.graph, cfg, out);
  EXPECT_TRUE(out.cliques() == truth);
  // Spot check: the planted clique's 5-subsets are all found.
  Clique probe(planted.clique_nodes.begin(), planted.clique_nodes.begin() + 5);
  EXPECT_TRUE(out.cliques().contains(probe));
}

TEST(KpLister, DisconnectedComponents) {
  Rng rng(6);
  const Graph g = disjoint_union(complete_graph(10),
                                 erdos_renyi_gnm(60, 500, rng));
  KpConfig cfg;
  cfg.p = 4;
  expect_exact(g, cfg);
}

TEST(KpLister, StarAndPathDegenerate) {
  KpConfig cfg;
  cfg.p = 4;
  expect_exact(star_graph(40), cfg);
  expect_exact(path_graph(40), cfg);
}

TEST(KpLister, EmptyAndTinyGraphs) {
  KpConfig cfg;
  cfg.p = 4;
  ListingOutput out0(0);
  EXPECT_EQ(list_kp_collect(empty_graph(0), cfg, out0).unique_cliques, 0u);
  ListingOutput out1(1);
  EXPECT_EQ(list_kp_collect(empty_graph(1), cfg, out1).unique_cliques, 0u);
  expect_exact(complete_graph(4), cfg);  // exactly one K4
}

TEST(KpLister, RejectsBadConfig) {
  KpConfig cfg;
  cfg.p = 2;
  EXPECT_THROW(list_kp(path_graph(3), cfg), std::invalid_argument);
  KpConfig bad_fast;
  bad_fast.p = 5;
  bad_fast.k4_fast = true;
  EXPECT_THROW(list_kp(path_graph(3), bad_fast), std::invalid_argument);
}

TEST(KpLister, RejectsNonPositiveOrNonFiniteScales) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    const char* field;
    std::function<void(KpConfig&)> set;
  };
  const std::vector<Case> cases = {
      {"heavy_scale", [&](KpConfig& c) { c.heavy_scale = 0.0; }},
      {"heavy_scale", [&](KpConfig& c) { c.heavy_scale = nan; }},
      {"bad_scale", [&](KpConfig& c) { c.bad_scale = -1.0; }},
      {"bad_scale", [&](KpConfig& c) { c.bad_scale = nan; }},
      {"stop_scale", [&](KpConfig& c) { c.stop_scale = nan; }},
      {"stop_scale", [&](KpConfig& c) { c.stop_scale = inf; }},
      {"coupling_scale", [&](KpConfig& c) { c.coupling_scale = 0.0; }},
      {"coupling_scale", [&](KpConfig& c) { c.coupling_scale = -inf; }},
      {"max_arb_iterations", [&](KpConfig& c) { c.max_arb_iterations = 0; }},
      {"max_arb_iterations", [&](KpConfig& c) { c.max_arb_iterations = -3; }},
  };
  for (const Case& tc : cases) {
    KpConfig cfg;
    cfg.p = 4;
    tc.set(cfg);
    try {
      list_kp(complete_graph(6), cfg);
      ADD_FAILURE() << tc.field << ": expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(tc.field), std::string::npos)
          << "message '" << e.what() << "' does not name " << tc.field;
    }
  }
  // The defaults and small positive scales stay accepted.
  KpConfig ok;
  ok.p = 4;
  ok.stop_scale = 0.01;
  ok.max_arb_iterations = 1;
  EXPECT_NO_THROW(list_kp(complete_graph(6), ok));
}

// ---- Configuration and ablation correctness -------------------------------

TEST(KpLister, AblationsPreserveCorrectness) {
  Rng rng(7);
  const Graph g = erdos_renyi_gnm(100, 2400, rng);
  for (const bool bad_edges : {true, false}) {
    for (const auto mode : {InClusterChargeMode::measured,
                            InClusterChargeMode::worst_case}) {
      KpConfig cfg;
      cfg.p = 4;
      cfg.enable_bad_edges = bad_edges;
      cfg.in_cluster_charge = mode;
      expect_exact(g, cfg);
    }
  }
}

TEST(KpLister, StopScaleForcesPipelineCorrectly) {
  Rng rng(8);
  const Graph g = erdos_renyi_gnm(130, 3900, rng);
  KpConfig cfg;
  cfg.p = 4;
  cfg.stop_scale = 0.1;  // drive the iterated pipeline hard
  const CliqueSet truth{list_k_cliques(g, 4)};
  ListingOutput out(g.node_count());
  const auto result = list_kp_collect(g, cfg, out);
  EXPECT_TRUE(out.cliques() == truth);
  EXPECT_GE(result.list_traces.size(), 1u);
}

TEST(KpLister, ArboricityDecreasesAcrossListIterations) {
  Rng rng(9);
  const Graph g = erdos_renyi_gnm(150, 5600, rng);
  KpConfig cfg;
  cfg.p = 5;
  cfg.stop_scale = 0.1;
  const auto result = list_kp(g, cfg);
  for (const auto& t : result.list_traces) {
    EXPECT_LT(t.arboricity_bound_after, t.arboricity_bound_before);
    EXPECT_LE(t.edges_after, t.edges_before);
  }
}

TEST(KpLister, ErDecaysWithinList) {
  Rng rng(10);
  const Graph g = erdos_renyi_gnm(150, 5600, rng);
  KpConfig cfg;
  cfg.p = 4;
  cfg.stop_scale = 0.1;
  const auto result = list_kp(g, cfg);
  for (const auto& t : result.arb_traces) {
    EXPECT_LE(t.er_after, t.er_before);
  }
}

TEST(KpLister, DeterministicUnderSeed) {
  Rng rng(11);
  const Graph g = erdos_renyi_gnm(90, 1800, rng);
  KpConfig cfg;
  cfg.p = 4;
  cfg.seed = 33;
  const auto a = list_kp(g, cfg);
  const auto b = list_kp(g, cfg);
  EXPECT_DOUBLE_EQ(a.total_rounds(), b.total_rounds());
  EXPECT_EQ(a.unique_cliques, b.unique_cliques);
  EXPECT_EQ(a.total_reports, b.total_reports);
}

TEST(KpLister, LedgerHasAllCostKinds) {
  Rng rng(12);
  const Graph g = erdos_renyi_gnm(140, 4200, rng);
  KpConfig cfg;
  cfg.p = 4;
  cfg.stop_scale = 0.1;
  const auto result = list_kp(g, cfg);
  EXPECT_GT(result.ledger.rounds_of_kind(CostKind::exchange), 0.0);
  EXPECT_GT(result.ledger.rounds_of_kind(CostKind::routing), 0.0);
  EXPECT_GT(result.ledger.rounds_of_kind(CostKind::analytic), 0.0);
}

TEST(KpLister, K4FastAvoidsLightLearningPhases) {
  Rng rng(13);
  const Graph g = erdos_renyi_gnm(140, 4200, rng);
  KpConfig slow, fast;
  slow.p = fast.p = 4;
  fast.k4_fast = true;
  slow.stop_scale = fast.stop_scale = 0.1;
  const auto rs = list_kp(g, slow);
  const auto rf = list_kp(g, fast);
  const auto slow_labels = rs.ledger.rounds_by_label();
  const auto fast_labels = rf.ledger.rounds_by_label();
  EXPECT_TRUE(slow_labels.contains("light-list-broadcast"));
  EXPECT_FALSE(fast_labels.contains("light-list-broadcast"));
  EXPECT_TRUE(fast_labels.contains("k4-light-probe"));
}

}  // namespace
}  // namespace dcl
