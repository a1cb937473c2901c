// Randomized differential validation of the distributed Kp lister.
//
// The correctness contract of core/kp_lister.h — the union of all node
// outputs equals the exact Kp set, no misses, no false positives — is the
// executable form of Theorems 1.1/1.2. This suite sweeps it against the
// sequential ground-truth oracle (enumeration/clique_enumeration.h) over
// randomized Erdős–Rényi and planted-clique instances for every p in
// {3,...,7}, the regime the deterministic follow-up work (PODC 2022) and
// exact listers treat as table stakes: exhaustive, seed-reproducible
// ground-truth comparison, not spot checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "congest/fault_plan.h"
#include "core/kp_lister.h"
#include "enumeration/clique_enumeration.h"
#include "graph/generators.h"
#include "graph/workloads.h"
#include "test_util.h"

namespace dcl {
namespace {

/// Runs the lister and compares its deduplicated output, as a sorted
/// canonical clique list, against brute-force ground truth.
void expect_matches_bruteforce(const Graph& g, const KpConfig& cfg) {
  // Ground truth, sorted and deduped into canonical form.
  std::vector<Clique> truth = list_k_cliques(g, cfg.p);
  std::sort(truth.begin(), truth.end());
  truth.erase(std::unique(truth.begin(), truth.end()), truth.end());

  ListingOutput out(g.node_count());
  const KpListResult result = list_kp_collect(g, cfg, out);
  expect_result_valid(result);

  std::vector<Clique> listed = out.cliques().to_vector();
  std::sort(listed.begin(), listed.end());

  ASSERT_EQ(listed.size(), truth.size())
      << "p=" << cfg.p << " n=" << g.node_count() << " m=" << g.edge_count()
      << ": lister found " << listed.size() << " cliques, oracle found "
      << truth.size();
  EXPECT_EQ(listed, truth);
  EXPECT_EQ(result.unique_cliques, truth.size());

  // Cross-check the oracle itself with the independent counter.
  EXPECT_EQ(count_k_cliques_naive(g, cfg.p),
            static_cast<std::uint64_t>(truth.size()));
}

// ---- Erdős–Rényi sweep ---------------------------------------------------

class ErdosRenyiDifferential
    : public ::testing::TestWithParam<std::tuple<int, int, double, int>> {};

TEST_P(ErdosRenyiDifferential, ListerEqualsBruteForce) {
  const auto [p, n, density, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 13);
  const Graph g = erdos_renyi_gnp(static_cast<NodeId>(n), density, rng);
  KpConfig cfg;
  cfg.p = p;
  cfg.seed = static_cast<std::uint64_t>(seed);
  expect_matches_bruteforce(g, cfg);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ErdosRenyiDifferential,
    ::testing::Combine(::testing::Values(3, 4, 5, 6, 7),
                       ::testing::Values(40, 80, 120),
                       ::testing::Values(0.1, 0.25),
                       ::testing::Values(1, 2, 3)));

// ---- Planted-clique sweep ------------------------------------------------
//
// A planted Kq with q > p guarantees a dense pocket of C(q,p) overlapping
// instances inside sparse noise — the adversarial case for the heavy/light
// split and for deduplication across cluster boundaries.

class PlantedCliqueDifferential
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(PlantedCliqueDifferential, ListerEqualsBruteForce) {
  const auto [p, n, clique_size, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 6151 + 29);
  const PlantedClique planted = planted_clique(
      static_cast<NodeId>(n), static_cast<NodeId>(clique_size), 0.08, rng);
  KpConfig cfg;
  cfg.p = p;
  cfg.seed = static_cast<std::uint64_t>(seed);
  expect_matches_bruteforce(planted.graph, cfg);

  // The planted clique itself must be listed: any p of its members form
  // a Kp; check the lexicographically first one explicitly.
  ListingOutput out(planted.graph.node_count());
  list_kp_collect(planted.graph, cfg, out);
  Clique first(planted.clique_nodes.begin(),
               planted.clique_nodes.begin() + p);
  EXPECT_TRUE(out.cliques().contains(first));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PlantedCliqueDifferential,
    ::testing::Combine(::testing::Values(3, 4, 5, 6, 7),
                       ::testing::Values(60, 110),
                       ::testing::Values(9, 12),
                       ::testing::Values(1, 2)));

// ---- K4-fast differential (Theorem 1.2) ----------------------------------

class K4FastDifferential
    : public ::testing::TestWithParam<std::tuple<int, double, int>> {};

TEST_P(K4FastDifferential, ListerEqualsBruteForce) {
  const auto [n, density, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 4241 + 17);
  const Graph g = erdos_renyi_gnp(static_cast<NodeId>(n), density, rng);
  KpConfig cfg;
  cfg.p = 4;
  cfg.k4_fast = true;
  cfg.seed = static_cast<std::uint64_t>(seed);
  expect_matches_bruteforce(g, cfg);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, K4FastDifferential,
    ::testing::Combine(::testing::Values(50, 100, 120),
                       ::testing::Values(0.12, 0.3),
                       ::testing::Values(1, 2, 3)));

// ---- Exactly-once grid ---------------------------------------------------
//
// Low stop scales push the lister through ARB-LIST (the default stops
// before it on these sizes). A single-cluster call reports every clique
// once, through its owner, so the output stays exact: its count and
// fingerprint come without the dedup sort. A call with two or more
// listing clusters marks the output may-repeat. Each grid case must equal
// the oracle, and wherever the output claims exactness, forcing the sort
// must keep every append. Erdős–Rényi inputs decompose into one cluster;
// a ring of dense blocks gives calls with several listing clusters.

struct ExactlyOnceCase {
  bool ring;  ///< ring of cliques instead of G(n, 0.3)
  int p;
  bool k4_fast;
  NodeId n;
  double stop_scale;
  std::uint64_t seed;

  std::string name() const {
    return std::string(ring ? "ring" : "er") + " p=" + std::to_string(p) + (k4_fast ? " k4_fast" : "") +
           " n=" + std::to_string(n) + " stop=" + std::to_string(stop_scale) +
           " seed=" + std::to_string(seed);
  }
};

std::vector<ExactlyOnceCase> exactly_once_grid() {
  std::vector<ExactlyOnceCase> grid;
  for (const bool ring : {false, true}) {
    for (const double stop : {0.3, 0.1, 0.01}) {
      for (const bool k4 : {false, true}) {
        for (int p = 3; p <= 6; ++p) {
          if (k4 && p != 4) continue;  // k4_fast is the p = 4 algorithm
          for (const NodeId n : {40, 80, 120}) {
            for (const std::uint64_t seed : {1u, 2u}) {
              grid.push_back({ring, p, k4, n, stop, seed});
            }
          }
        }
      }
    }
  }
  return grid;
}

Graph exactly_once_graph(const ExactlyOnceCase& c) {
  Rng rng(c.seed * 7907 + static_cast<std::uint64_t>(c.n));
  return c.ring ? ring_of_cliques_workload(c.n, rng)
                : erdos_renyi_gnp(c.n, 0.3, rng);
}

KpConfig exactly_once_config(const ExactlyOnceCase& c) {
  KpConfig cfg;
  cfg.p = c.p;
  cfg.k4_fast = c.k4_fast;
  cfg.stop_scale = c.stop_scale;
  cfg.seed = c.seed;
  return cfg;
}

bool any_multi_cluster_call(const KpListResult& result) {
  return std::any_of(
      result.arb_traces.begin(), result.arb_traces.end(),
      [](const ArbIterationTrace& t) { return t.tail_clusters > 1; });
}

/// Where the output claims exactness, its O(1) count and fingerprint must
/// survive the sort: the sorted run keeps every append.
void expect_exact_claim_holds(const ListingOutput& out) {
  if (!out.exact()) return;
  const std::uint64_t count = out.unique_count();
  const std::uint64_t fingerprint = out.cliques().fingerprint();
  const std::vector<Clique> sorted = out.cliques().to_vector();
  EXPECT_EQ(sorted.size(), count) << "an exact output held a repeat";
  EXPECT_EQ(CliqueSet(sorted).fingerprint(), fingerprint);
}

TEST(ExactlyOnceDifferential, GridMatchesBruteForceAndReachesBothBranches) {
  int single_cluster_exact = 0;
  int multi_cluster = 0;
  for (const ExactlyOnceCase& c : exactly_once_grid()) {
    SCOPED_TRACE(c.name());
    const Graph g = exactly_once_graph(c);
    const KpConfig cfg = exactly_once_config(c);
    ListingOutput out(g.node_count());
    const KpListResult result = list_kp_collect(g, cfg, out);
    expect_result_valid(result);
    const CliqueSet truth(list_k_cliques(g, c.p));
    EXPECT_EQ(result.unique_cliques, truth.size());
    EXPECT_EQ(out.cliques().fingerprint(), truth.fingerprint());
    expect_exact_claim_holds(out);
    EXPECT_TRUE(out.cliques() == truth);
    if (any_multi_cluster_call(result)) {
      ++multi_cluster;
      EXPECT_FALSE(out.exact()) << "a multi-cluster call must mark may-repeat";
    } else if (out.exact() && !result.arb_traces.empty() &&
               result.total_reports > result.unique_cliques) {
      // ARB-LIST ran, nodes found cliques more than once, and yet each
      // clique reached the log once.
      ++single_cluster_exact;
    }
  }
  EXPECT_GT(single_cluster_exact, 0) << "no single-cluster exact call";
  EXPECT_GT(multi_cluster, 0) << "no multi-cluster may-repeat call";
}

TEST(ExactlyOnceDifferential, RecoverableFaultsKeepTheGridBitIdentical) {
  for (const ExactlyOnceCase& c : exactly_once_grid()) {
    SCOPED_TRACE(c.name());
    const Graph g = exactly_once_graph(c);
    KpConfig cfg = exactly_once_config(c);
    ListingOutput clean(g.node_count());
    const KpListResult base = list_kp_collect(g, cfg, clean);
    FaultPlan plan(FaultSpec::parse(
        "drop=0.05,dup=0.05,delay=0.05:2,retries=5,seed=11"));
    cfg.faults = &plan;
    ListingOutput out(g.node_count());
    const KpListResult faulty = list_kp_collect(g, cfg, out);
    EXPECT_EQ(faulty.unique_cliques, base.unique_cliques);
    EXPECT_EQ(faulty.total_reports, base.total_reports);
    EXPECT_EQ(out.exact(), clean.exact());
    EXPECT_EQ(out.cliques().fingerprint(), clean.cliques().fingerprint());
    expect_exact_claim_holds(out);
  }
}

TEST(ExactlyOnceDifferential, CrashesKeepTheSurvivorContract) {
  for (const ExactlyOnceCase& c : exactly_once_grid()) {
    SCOPED_TRACE(c.name());
    const Graph g = exactly_once_graph(c);
    KpConfig cfg = exactly_once_config(c);
    FaultPlan plan(FaultSpec::parse("crash=3@0,crash=17@2,seed=5"));
    cfg.faults = &plan;
    ListingOutput out(g.node_count());
    const KpListResult result = list_kp_collect(g, cfg, out);
    expect_result_valid(result);
    ASSERT_FALSE(result.crashed_nodes.empty()) << "no crash fired";
    expect_exact_claim_holds(out);
    // Every Kp of the survivor-induced subgraph is listed, and everything
    // listed is a Kp of G.
    std::vector<char> dead(static_cast<std::size_t>(g.node_count()), 0);
    for (const NodeId v : result.crashed_nodes) {
      dead[static_cast<std::size_t>(v)] = 1;
    }
    std::vector<Edge> alive_edges;
    for (const Edge& e : g.edges()) {
      if (!dead[static_cast<std::size_t>(e.u)] &&
          !dead[static_cast<std::size_t>(e.v)]) {
        alive_edges.push_back(e);
      }
    }
    const Graph alive = Graph::from_edges(g.node_count(), std::move(alive_edges));
    const CliqueRun listed = out.cliques();
    for (const Clique& q : list_k_cliques(alive, c.p)) {
      EXPECT_TRUE(listed.contains(q)) << "alive clique missing";
    }
    const CliqueSet truth(list_k_cliques(g, c.p));
    listed.for_each_span([&](std::span<const NodeId> q) {
      EXPECT_TRUE(truth.contains(q)) << "listed a non-clique";
    });
  }
}

// ---- Closed-form oracles -------------------------------------------------

TEST(ClosedFormDifferential, CompleteGraphHasBinomialManyCliques) {
  for (int p = 3; p <= 7; ++p) {
    const Graph g = complete_graph(12);
    KpConfig cfg;
    cfg.p = p;
    expect_matches_bruteforce(g, cfg);
  }
}

TEST(ClosedFormDifferential, BipartiteGraphsHaveNoTriangles) {
  const Graph g = complete_bipartite(8, 9);
  for (int p = 3; p <= 5; ++p) {
    KpConfig cfg;
    cfg.p = p;
    ListingOutput out(g.node_count());
    const auto result = list_kp_collect(g, cfg, out);
    expect_result_valid(result);
    EXPECT_EQ(out.unique_count(), 0u);
    EXPECT_EQ(result.unique_cliques, 0u);
  }
}

}  // namespace
}  // namespace dcl
