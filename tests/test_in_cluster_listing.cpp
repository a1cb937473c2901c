#include "core/in_cluster_listing.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/part_tables.h"
#include "enumeration/clique_enumeration.h"
#include "graph/generators.h"
#include "graph/orientation.h"
#include "routing/cluster_router.h"

namespace dcl {
namespace {

/// Builds the canonical problem: cluster = all nodes of `g`, every edge
/// known and grouped at its responsibility holder by degeneracy tail.
struct Scenario {
  Graph g;
  Cluster cluster;
  std::vector<std::vector<KnownEdge>> holders;
  EdgeMask goal;

  explicit Scenario(Graph graph) : g(std::move(graph)) {
    cluster.id = 0;
    for (NodeId v = 0; v < g.node_count(); ++v) cluster.nodes.push_back(v);
    cluster.min_internal_degree = 1;
    const auto k = static_cast<NodeId>(cluster.nodes.size());
    holders.resize(static_cast<std::size_t>(k));
    const Orientation o = degeneracy_orientation(g);
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      const NodeId tail = o.tail(e);
      const NodeId idx = responsible_cluster_index(tail, g.node_count(), k);
      holders[static_cast<std::size_t>(idx)].push_back(
          KnownEdge{tail, o.head(e)});
    }
    goal.assign(g.edge_count(), true);
  }

  InClusterProblem problem(int p, InClusterChargeMode mode =
                                      InClusterChargeMode::measured) const {
    InClusterProblem pr;
    pr.base = &g;
    pr.cluster = &cluster;
    pr.edges_by_holder = &holders;
    pr.goal_edge = &goal;
    pr.p = p;
    pr.charge_mode = mode;
    return pr;
  }
};

TEST(InClusterListing, ListsAllCliquesOfCompleteGraph) {
  Scenario s(complete_graph(8));
  for (const int p : {3, 4, 5}) {
    Rng rng(1);
    ListingOutput out(s.g.node_count());
    const auto cost = in_cluster_list(s.problem(p), rng, out);
    EXPECT_TRUE(out.cliques() == CliqueSet(list_k_cliques(s.g, p)))
        << "p=" << p;
    EXPECT_GT(cost.parts, 0);
  }
}

TEST(InClusterListing, ListsAllCliquesOfRandomGraph) {
  Rng gen(2);
  Scenario s(erdos_renyi_gnm(40, 350, gen));
  Rng rng(3);
  ListingOutput out(s.g.node_count());
  in_cluster_list(s.problem(4), rng, out);
  EXPECT_TRUE(out.cliques() == CliqueSet(list_k_cliques(s.g, 4)));
}

TEST(InClusterListing, GoalEdgeFilterRestrictsOutput) {
  Scenario s(complete_graph(6));
  s.goal.fill(false);
  s.goal.set(*s.g.edge_id(0, 1));
  Rng rng(4);
  ListingOutput out(s.g.node_count());
  in_cluster_list(s.problem(3), rng, out);
  // Only triangles through {0,1}: the other C(4,1) = 4 completions.
  EXPECT_EQ(out.unique_count(), 4u);
  for (const auto& c : out.cliques().to_vector()) {
    EXPECT_EQ(c[0], 0);
    EXPECT_EQ(c[1], 1);
  }
}

TEST(InClusterListing, NoGoalEdgesNoOutput) {
  Scenario s(complete_graph(6));
  s.goal.fill(false);
  Rng rng(5);
  ListingOutput out(s.g.node_count());
  const auto cost = in_cluster_list(s.problem(3), rng, out);
  EXPECT_EQ(out.unique_count(), 0u);
  // Edges still flowed (the cluster cannot know in advance they are all
  // non-goal): loads are positive.
  EXPECT_GT(cost.max_recv, 0);
}

TEST(InClusterListing, ExactOnRandomGraphs) {
  // Differential check on unstructured instances: with the whole graph as
  // one cluster and every edge a goal edge, in-cluster listing must
  // reproduce the oracle exactly (the §2.4 contract).
  for (const int seed : {1, 2, 3}) {
    Rng gen(static_cast<std::uint64_t>(seed) * 53 + 11);
    Scenario s(erdos_renyi_gnp(28, 0.3, gen));
    for (const int p : {3, 4}) {
      Rng rng(static_cast<std::uint64_t>(seed));
      ListingOutput out(s.g.node_count());
      const auto cost = in_cluster_list(s.problem(p), rng, out);
      EXPECT_TRUE(out.cliques() == CliqueSet(list_k_cliques(s.g, p)))
          << "seed=" << seed << " p=" << p;
      EXPECT_GE(cost.max_send, 0);
      EXPECT_GE(cost.max_recv, 0);
      EXPECT_GE(cost.parts, 1);
      EXPECT_GE(cost.cliques_reported, out.unique_count());
    }
  }
}

TEST(InClusterListing, WorstCaseChargeDominatesMeasured) {
  Rng gen(6);
  Scenario s(erdos_renyi_gnm(30, 120, gen));
  Rng rng_a(7), rng_b(7);
  ListingOutput out_a(s.g.node_count()), out_b(s.g.node_count());
  const auto measured = in_cluster_list(
      s.problem(3, InClusterChargeMode::measured), rng_a, out_a);
  const auto worst = in_cluster_list(
      s.problem(3, InClusterChargeMode::worst_case), rng_b, out_b);
  EXPECT_GE(worst.max_recv, measured.max_recv);
  EXPECT_GE(worst.max_send, measured.max_send);
  // The charge mode must not change what gets listed.
  EXPECT_TRUE(out_a.cliques() == out_b.cliques());
}

TEST(InClusterListing, SendLoadsReflectCoverCounts) {
  Scenario s(complete_graph(16));  // k=16, p=4 -> q=2
  Rng rng(8);
  ListingOutput out(s.g.node_count());
  const auto cost = in_cluster_list(s.problem(4), rng, out);
  EXPECT_EQ(cost.parts, 2);
  // With q=2 every edge goes to many of the 16 nodes; send load is at
  // least the number of edges a holder owns.
  EXPECT_GT(cost.max_send, 0);
  EXPECT_GT(cost.messages, static_cast<std::uint64_t>(s.g.edge_count()));
}

TEST(InClusterListing, SingletonPartDegeneratesGracefully) {
  // k < 2^p forces q = 1: everything lands in one bucket, one
  // representative lists everything.
  Scenario s(complete_graph(5));
  Rng rng(9);
  ListingOutput out(s.g.node_count());
  const auto cost = in_cluster_list(s.problem(4), rng, out);
  EXPECT_EQ(cost.parts, 1);
  EXPECT_TRUE(out.cliques() == CliqueSet(list_k_cliques(s.g, 4)));
}

TEST(InClusterListing, OwnersReportEachCliqueOnce) {
  // K9 at p = 3 gives q = 2: a triangle inside one part is found by every
  // representative holding that part twice, yet only its owner appends
  // it. The output stays exact — its O(1) count equals the sorted run —
  // while total_reports still counts every find.
  Scenario s(complete_graph(9));
  Rng rng(10);
  ListingOutput out(s.g.node_count());
  const auto cost = in_cluster_list(s.problem(3), rng, out);
  EXPECT_TRUE(out.exact());
  EXPECT_EQ(out.unique_count(), 84u);  // C(9, 3)
  EXPECT_GT(out.total_reports(), out.unique_count()) << "no repeated find";
  EXPECT_EQ(cost.cliques_reported, out.total_reports());
  EXPECT_EQ(out.cliques().to_vector().size(), 84u);
  EXPECT_TRUE(out.cliques() == CliqueSet(list_k_cliques(s.g, 3)));
}

TEST(InClusterListing, InternBuffersSurviveShrinkThenGrowAcrossGraphs) {
  // The interning buffers are function-static thread_local and sized to
  // the base graph: a large graph grows them, a much smaller one triggers
  // the shrink policy, and a large graph again must regrow them with the
  // all-slots-reset invariant intact. Any stale compact id or missed
  // reset surfaces as a wrong clique set here. All three calls run on
  // THIS thread (gtest runs the body single-threaded), so they hit the
  // same buffers in sequence.
  Rng big_gen(41);
  Scenario big(erdos_renyi_gnm(9000, 4000, big_gen));
  Rng small_gen(42);
  Scenario small(erdos_renyi_gnp(24, 0.4, small_gen));

  for (int round = 0; round < 2; ++round) {
    {
      Rng rng(100 + static_cast<std::uint64_t>(round));
      ListingOutput out(big.g.node_count());
      in_cluster_list(big.problem(3), rng, out);
      EXPECT_TRUE(out.cliques() == CliqueSet(list_k_cliques(big.g, 3)))
          << "big round " << round;
    }
    {
      // 9000-slot buffer vs max(4·24, 4096) threshold: this call shrinks.
      Rng rng(200 + static_cast<std::uint64_t>(round));
      ListingOutput out(small.g.node_count());
      in_cluster_list(small.problem(3), rng, out);
      EXPECT_TRUE(out.cliques() == CliqueSet(list_k_cliques(small.g, 3)))
          << "small round " << round;
    }
  }
}

TEST(InClusterListing, DuplicateHeldEdgesDoNotChangeTheListing) {
  // Fragment compilation dedups identical held edges and ORs their goal
  // flags; a bucket holding the same edge twice (here: duplicated inside
  // one holder's list before dedup normally happens upstream) must list
  // exactly the same cliques as the clean problem.
  Rng gen(7);
  Scenario clean(erdos_renyi_gnp(20, 0.5, gen));
  Scenario doubled = clean;
  for (auto& h : doubled.holders) {
    const auto original = h;
    h.insert(h.end(), original.begin(), original.end());
  }
  Rng rng_a(31), rng_b(31);
  ListingOutput out_a(clean.g.node_count());
  ListingOutput out_b(doubled.g.node_count());
  in_cluster_list(clean.problem(4), rng_a, out_a);
  in_cluster_list(doubled.problem(4), rng_b, out_b);
  EXPECT_TRUE(out_a.cliques() == out_b.cliques());
  EXPECT_TRUE(out_a.cliques() == CliqueSet(list_k_cliques(clean.g, 4)));
}

TEST(InClusterPlanEnumerate, SplitRangesReproduceTheFullListing) {
  // The plan/enumerate contract: any partition of [0, reps.size()) into
  // ranges yields the same union of reports as the one-call wrapper.
  Rng gen(12);
  Scenario s(erdos_renyi_gnm(64, 600, gen));
  Rng rng_a(13), rng_b(13);
  ListingOutput whole(s.g.node_count());
  const auto cost = in_cluster_list(s.problem(4), rng_a, whole);

  const InClusterPlan plan = in_cluster_plan(s.problem(4), rng_b);
  EXPECT_EQ(plan.cost.max_send, cost.max_send);
  EXPECT_EQ(plan.cost.max_recv, cost.max_recv);
  EXPECT_EQ(plan.cost.messages, cost.messages);
  EXPECT_EQ(plan.cost.parts, cost.parts);
  ASSERT_GE(plan.reps.size(), 2u) << "scenario too small to split";
  ListingOutput split(s.g.node_count());
  std::uint64_t reported = 0;
  const std::size_t mid = plan.reps.size() / 2;
  reported += in_cluster_enumerate(plan, 0, mid, split);
  reported += in_cluster_enumerate(plan, mid, plan.reps.size(), split);
  EXPECT_EQ(reported, cost.cliques_reported);
  EXPECT_TRUE(split.cliques() == whole.cliques());
  EXPECT_EQ(split.total_reports(), whole.total_reports());
}

TEST(InClusterPlanEnumerate, EstimatesAccumulateIn64Bits) {
  // Synthetic star cluster: a 70 000-leaf hub forced into a single part
  // (k = 5 < 2^p, so q = 1) gives ONE representative whose local graph has
  // a single 70 000-entry row — its out-degree² estimate is 4.9e9, past
  // anything a 32-bit accumulator can hold. A wrapped estimate would show
  // up here as est_work != 70 000².
  constexpr NodeId kLeaves = 70000;
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(kLeaves));
  for (NodeId v = 1; v <= kLeaves; ++v) edges.push_back(Edge{0, v});
  Graph star = Graph::from_edges(kLeaves + 1, std::move(edges));

  Cluster cluster;
  cluster.id = 0;
  for (NodeId v = 0; v < 5; ++v) cluster.nodes.push_back(v);
  cluster.min_internal_degree = 1;
  std::vector<std::vector<KnownEdge>> holders(5);
  for (EdgeId e = 0; e < star.edge_count(); ++e) {
    const Edge& ed = star.edge(e);
    const NodeId idx =
        responsible_cluster_index(ed.u, star.node_count(), 5);
    holders[static_cast<std::size_t>(idx)].push_back(KnownEdge{ed.u, ed.v});
  }
  EdgeMask goal;
  goal.assign(star.edge_count(), true);

  InClusterProblem pr;
  pr.base = &star;
  pr.cluster = &cluster;
  pr.edges_by_holder = &holders;
  pr.goal_edge = &goal;
  pr.p = 4;

  Rng rng(14);
  const InClusterPlan plan = in_cluster_plan(pr, rng);
  EXPECT_EQ(plan.q, 1);
  ASSERT_EQ(plan.reps.size(), 1u);
  const std::uint64_t expected =
      static_cast<std::uint64_t>(kLeaves) * static_cast<std::uint64_t>(kLeaves);
  EXPECT_EQ(plan.reps[0].est_work, expected);
  EXPECT_EQ(plan.est_work_total, expected);
  EXPECT_GT(plan.est_work_total,
            std::uint64_t{std::numeric_limits<std::uint32_t>::max()});
  // A star has no K4: the (cheap) enumeration must report nothing.
  ListingOutput out(star.node_count());
  EXPECT_EQ(in_cluster_enumerate(plan, 0, plan.reps.size(), out), 0u);
}

TEST(InClusterPlanEnumerate, RepsBelowThresholdsAreDroppedAtPlanTime) {
  // No goal edges → every representative is dropped: the enumeration half
  // has literally nothing to do.
  Scenario s(complete_graph(6));
  s.goal.fill(false);
  Rng rng(15);
  const InClusterPlan plan = in_cluster_plan(s.problem(3), rng);
  EXPECT_TRUE(plan.reps.empty());
  EXPECT_EQ(plan.est_work_total, 0u);
}

TEST(InClusterOwnership, EveryCoveredReducedMultisetHasOneCoveringOwner) {
  // Random clusters with p in 3..6: collect, for every reduced multiset R
  // of at most p parts, the surviving representatives whose multiset
  // covers it (checked by multiplicity, not through the radix code). R
  // must have exactly one owner among them — the first in roster order —
  // and no representative outside them may claim it.
  Rng pick(404);
  for (int trial = 0; trial < 24; ++trial) {
    const int p = 3 + static_cast<int>(pick.next_below(4));
    const auto k = static_cast<NodeId>(16 + pick.next_below(240));
    SCOPED_TRACE("p=" + std::to_string(p) + " k=" + std::to_string(k));
    Rng gen(pick.next_below(1u << 30));
    Scenario s(erdos_renyi_gnp(k, 0.35, gen));
    Rng rng(pick.next_below(1u << 30));
    const InClusterPlan plan = in_cluster_plan(s.problem(p), rng);

    const auto covers = [](const std::vector<int>& multiset,
                           const std::vector<int>& reduced) {
      for (const int a : reduced) {
        const auto in_r = std::count(reduced.begin(), reduced.end(), a);
        const auto in_s = std::count(multiset.begin(), multiset.end(), a);
        if (in_r > in_s) return false;
      }
      return true;
    };
    std::map<std::vector<int>, std::vector<std::pair<std::size_t, bool>>>
        claims;  // R -> (roster index, owned bit)
    for (std::size_t r = 0; r < plan.reps.size(); ++r) {
      const std::vector<int> s_r =
          part_multiset(plan.reps[r].node, plan.q, p);
      const ReducedCover cover(s_r);
      for (std::uint32_t code = 0; code < cover.codes; ++code) {
        const std::vector<int> reduced = cover.decode(code);
        ASSERT_TRUE(covers(s_r, reduced));
        if (reduced.size() > static_cast<std::size_t>(p)) continue;
        claims[reduced].emplace_back(
            r, plan.owned[static_cast<std::int64_t>(
                   plan.reps[r].owned_begin + code)]);
      }
    }
    ASSERT_FALSE(claims.empty());
    for (const auto& [reduced, reps] : claims) {
      std::size_t owners = 0;
      for (const auto& [r, owned] : reps) owners += owned ? 1 : 0;
      EXPECT_EQ(owners, 1u);
      EXPECT_TRUE(reps.front().second) << "owner is not first in roster";
      std::size_t covering = 0;
      for (const InClusterPlan::Rep& rep : plan.reps) {
        covering += covers(part_multiset(rep.node, plan.q, p), reduced);
      }
      EXPECT_EQ(covering, reps.size());
    }
  }
}

TEST(InClusterListing, HolderCountMismatchThrows) {
  Scenario s(complete_graph(4));
  s.holders.pop_back();
  Rng rng(11);
  ListingOutput out(s.g.node_count());
  EXPECT_THROW(in_cluster_list(s.problem(3), rng, out), std::invalid_argument);
}

}  // namespace
}  // namespace dcl
