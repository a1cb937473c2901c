#include "core/detection.h"

#include <gtest/gtest.h>

#include "enumeration/clique_enumeration.h"
#include "graph/generators.h"

namespace dcl {
namespace {

TEST(Detection, FindsWitnessWhenPresent) {
  Rng rng(1);
  const auto planted = planted_clique(80, 6, 0.03, rng);
  KpConfig cfg;
  cfg.p = 6;
  const auto result = detect_kp(planted.graph, cfg);
  EXPECT_TRUE(result.found);
  ASSERT_EQ(result.witness.size(), 6u);
  EXPECT_TRUE(is_clique(planted.graph, result.witness));
  EXPECT_GT(result.rounds, 0.0);
}

TEST(Detection, NegativeOnCliqueFreeGraphs) {
  KpConfig cfg;
  cfg.p = 3;
  EXPECT_FALSE(detect_kp(complete_bipartite(12, 12), cfg).found);
  cfg.p = 5;
  EXPECT_FALSE(detect_kp(cycle_graph(30), cfg).found);
}

TEST(Detection, ThresholdSensitivity) {
  // K5 contains K4 and K5 but no K6.
  const Graph g = complete_graph(5);
  for (const int p : {4, 5}) {
    KpConfig cfg;
    cfg.p = p;
    EXPECT_TRUE(detect_kp(g, cfg).found) << p;
  }
  KpConfig cfg;
  cfg.p = 6;
  EXPECT_FALSE(detect_kp(g, cfg).found);
}

TEST(Detection, AgreesWithOracleOnRandomSweep) {
  // Differential detection: found ⟺ the oracle count is positive, and
  // any witness is a real clique. Densities straddle the Kp emergence
  // thresholds so both outcomes occur across the sweep.
  int positives = 0, negatives = 0;
  for (const int p : {3, 4, 5}) {
    for (const double density : {0.03, 0.1, 0.3}) {
      for (const int seed : {1, 2}) {
        Rng rng(static_cast<std::uint64_t>(seed) * 271 + 9);
        const Graph g = erdos_renyi_gnp(60, density, rng);
        KpConfig cfg;
        cfg.p = p;
        cfg.seed = static_cast<std::uint64_t>(seed);
        const auto result = detect_kp(g, cfg);
        const bool truth = count_k_cliques(g, p) > 0;
        EXPECT_EQ(result.found, truth)
            << "p=" << p << " density=" << density << " seed=" << seed;
        EXPECT_GE(result.rounds, 0.0);
        if (result.found) {
          ASSERT_EQ(result.witness.size(), static_cast<std::size_t>(p));
          EXPECT_TRUE(is_clique(g, result.witness));
          ++positives;
        } else {
          ++negatives;
        }
      }
    }
  }
  EXPECT_GT(positives, 0) << "sweep never exercised the positive branch";
  EXPECT_GT(negatives, 0) << "sweep never exercised the negative branch";
}

TEST(Counting, MatchesSequentialOracle) {
  Rng rng(2);
  const Graph g = erdos_renyi_gnm(90, 1200, rng);
  for (const int p : {3, 4, 5}) {
    KpConfig cfg;
    cfg.p = p;
    const auto result = count_kp_distributed(g, cfg);
    EXPECT_EQ(result.count, count_k_cliques(g, p)) << "p=" << p;
  }
}

TEST(Counting, AggregationChargedSeparately) {
  Rng rng(3);
  const Graph g = erdos_renyi_gnm(70, 500, rng);
  KpConfig cfg;
  cfg.p = 4;
  const auto result = count_kp_distributed(g, cfg);
  EXPECT_GT(result.aggregation_rounds, 0.0);
  EXPECT_GT(result.rounds, result.aggregation_rounds);
}

TEST(Counting, AggregationRoundsAreTwiceTheDeepestBfsTree) {
  // Up and down a BFS tree rooted at each component's minimum-id node; the
  // components aggregate in parallel, so the charge is 2 * max depth.
  struct Case {
    const char* name;
    Graph graph;
    double rounds;
  };
  const Case cases[] = {
      {"P2", path_graph(2), 2.0},
      {"P9", path_graph(9), 16.0},
      {"P6+K5", disjoint_union(path_graph(6), complete_graph(5)), 10.0},
      {"K5+P6", disjoint_union(complete_graph(5), path_graph(6)), 10.0},
      {"P1+K4", disjoint_union(path_graph(1), complete_graph(4)), 2.0},
  };
  for (const Case& c : cases) {
    KpConfig cfg;
    cfg.p = 3;
    const auto result = count_kp_distributed(c.graph, cfg);
    EXPECT_DOUBLE_EQ(result.aggregation_rounds, c.rounds) << c.name;
  }
}

TEST(Counting, DisconnectedGraph) {
  const Graph g = disjoint_union(complete_graph(5), complete_graph(6));
  KpConfig cfg;
  cfg.p = 4;
  const auto result = count_kp_distributed(g, cfg);
  EXPECT_EQ(result.count, 5u + 15u);  // C(5,4) + C(6,4)
}

TEST(Counting, EmptyGraph) {
  KpConfig cfg;
  cfg.p = 4;
  const auto result = count_kp_distributed(empty_graph(5), cfg);
  EXPECT_EQ(result.count, 0u);
  EXPECT_DOUBLE_EQ(result.aggregation_rounds, 0.0);
}

}  // namespace
}  // namespace dcl
