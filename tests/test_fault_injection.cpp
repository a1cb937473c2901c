// Chaos differential suite for the fault-injection plane.
//
// Three layers, matching the degradation contracts of docs/ROBUSTNESS.md:
//  * message-level (CongestNetwork): recoverable faults leave delivered
//    contents bit-identical and only cost rounds; losses beyond the retry
//    budget are genuinely withheld;
//  * accounting-level pipelines (list_kp / sparse_cc): any drop/dup/delay
//    sweep leaves the clique fingerprint bit-identical to the fault-free
//    run — the degradation is charged cost, never output;
//  * crashes: the survivor contract — every Kp of G[alive] is listed and
//    everything listed is a Kp of G.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <tuple>
#include <vector>

#include "common/parallel_for.h"
#include "common/rng.h"
#include "congest/congest_network.h"
#include "congest/fault_plan.h"
#include "core/kp_lister.h"
#include "core/sparse_cc.h"
#include "enumeration/clique_enumeration.h"
#include "graph/generators.h"
#include "graph/workloads.h"
#include "test_util.h"

namespace dcl {
namespace {

class ScopedShardThreads {
 public:
  explicit ScopedShardThreads(int threads) : previous_(shard_threads()) {
    set_shard_threads(threads);
  }
  ~ScopedShardThreads() { set_shard_threads(previous_); }

 private:
  int previous_;
};

// ---- Message level: CongestNetwork ---------------------------------------

TEST(CongestNetworkFaults, RecoverableFaultsKeepInboxesIdentical) {
  const Graph g = cycle_graph(8);
  auto run = [&](FaultPlan* plan) {
    CongestNetwork net(g);
    net.attach_faults(plan);
    std::int64_t rounds = 0;
    for (int phase = 0; phase < 3; ++phase) {
      net.begin_phase("chatter");
      for (NodeId v = 0; v < 8; ++v) {
        for (const NodeId w : g.neighbors(v)) {
          net.send(v, w, Message{.tag = phase, .a = v, .b = w});
        }
      }
      rounds += net.end_phase();
    }
    std::vector<std::vector<Delivery>> inboxes(8);
    for (NodeId v = 0; v < 8; ++v) {
      const auto box = net.inbox(v);
      inboxes[static_cast<std::size_t>(v)].assign(box.begin(), box.end());
    }
    return std::tuple(rounds, inboxes, net.lost_messages(),
                      net.ledger().retransmitted_messages());
  };

  const auto [base_rounds, base_inboxes, base_lost, base_retx] = run(nullptr);
  EXPECT_EQ(base_lost, 0u);
  EXPECT_EQ(base_retx, 0u);

  FaultPlan plan(
      FaultSpec::parse("drop=0.2,dup=0.1,delay=0.1:2,retries=8,seed=5"));
  const auto [rounds, inboxes, lost, retx] = run(&plan);
  EXPECT_EQ(lost, 0u) << "retries=8 must recover a 0.2 drop rate";
  EXPECT_GT(retx, 0u) << "a 0.4 fault mass over 48 messages never fired";
  EXPECT_GT(rounds, base_rounds) << "recovery rounds must be charged";
  for (NodeId v = 0; v < 8; ++v) {
    const auto& a = base_inboxes[static_cast<std::size_t>(v)];
    const auto& b = inboxes[static_cast<std::size_t>(v)];
    ASSERT_EQ(a.size(), b.size()) << "node " << v;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].from, b[i].from);
      EXPECT_EQ(a[i].msg, b[i].msg);
    }
  }
}

TEST(CongestNetworkFaults, BudgetExhaustedMessagesAreWithheld) {
  const Graph g = path_graph(2);
  FaultPlan plan(FaultSpec::parse("drop=1,retries=2"));
  CongestNetwork net(g);
  net.attach_faults(&plan);
  net.begin_phase("doomed");
  net.send(0, 1, Message{.tag = 9});
  net.end_phase();
  EXPECT_TRUE(net.inbox(1).empty()) << "a lost message must not arrive";
  EXPECT_EQ(net.lost_messages(), 1u);
  EXPECT_EQ(net.ledger().lost_messages(), 1u);
  EXPECT_EQ(net.ledger().retransmitted_messages(), 2u);
}

TEST(CongestNetworkFaults, FaultClockAdvancesPerPhase) {
  const Graph g = path_graph(2);
  FaultPlan plan(FaultSpec::parse("dup=0.5,seed=2"));
  CongestNetwork net(g);
  net.attach_faults(&plan);
  for (int i = 0; i < 3; ++i) {
    net.begin_phase("tick");
    net.send(0, 1, Message{.tag = i});
    net.end_phase();
  }
  EXPECT_EQ(net.fault_clock(), 3);
}

// ---- Accounting level: the listing pipelines -----------------------------

struct ChaosFixture {
  const char* name;
  Graph graph;
};

std::vector<ChaosFixture> chaos_fixtures() {
  std::vector<ChaosFixture> fixtures;
  Rng er_rng(7);
  fixtures.push_back({"er", erdos_renyi_gnm(48, 300, er_rng)});
  Rng ring_rng(9);
  fixtures.push_back({"ring", ring_of_cliques_workload(48, ring_rng)});
  return fixtures;
}

TEST(PipelineChaos, RecoverableSweepsKeepFingerprintsBitIdentical) {
  const char* sweeps[] = {
      "drop=0.08,retries=4,seed=3",
      "dup=0.15,seed=5",
      "delay=0.1:3,seed=7",
      "drop=0.05,dup=0.05,delay=0.05:2,retries=5,seed=11",
      // A starved retry budget: losses escalate to charged resends, the
      // output still must not change (accounting-level contract).
      "drop=0.3,retries=0,seed=13",
  };
  for (auto& fixture : chaos_fixtures()) {
    for (const int p : {3, 4, 5}) {
      KpConfig base_cfg;
      base_cfg.p = p;
      base_cfg.seed = 2;
      ListingOutput base_out(fixture.graph.node_count());
      const auto base = list_kp_collect(fixture.graph, base_cfg, base_out);
      for (const char* spec : sweeps) {
        SCOPED_TRACE(std::string(fixture.name) + " p=" + std::to_string(p) +
                     " faults=" + spec);
        FaultPlan plan(FaultSpec::parse(spec));
        KpConfig cfg = base_cfg;
        cfg.faults = &plan;
        ListingOutput out(fixture.graph.node_count());
        const auto result = list_kp_collect(fixture.graph, cfg, out);
        expect_result_valid(result);
        EXPECT_EQ(out.cliques().fingerprint(), base_out.cliques().fingerprint());
        EXPECT_EQ(result.unique_cliques, base.unique_cliques);
        EXPECT_GE(result.total_rounds(), base.total_rounds())
            << "faults can only add cost";
        EXPECT_TRUE(result.crashed_nodes.empty());
      }
    }
  }
}

TEST(PipelineChaos, FingerprintMatchesTheFaultFreeRunExactly) {
  // The sharper form of the sweep above: collect both outputs and compare
  // the order-independent fingerprints directly.
  for (auto& fixture : chaos_fixtures()) {
    for (const int p : {3, 4, 5}) {
      SCOPED_TRACE(std::string(fixture.name) + " p=" + std::to_string(p));
      KpConfig cfg;
      cfg.p = p;
      cfg.seed = 2;
      ListingOutput clean(fixture.graph.node_count());
      list_kp_collect(fixture.graph, cfg, clean);

      FaultPlan plan(FaultSpec::parse(
          "drop=0.1,dup=0.05,delay=0.05:2,retries=4,seed=17"));
      KpConfig chaotic = cfg;
      chaotic.faults = &plan;
      ListingOutput out(fixture.graph.node_count());
      const auto result = list_kp_collect(fixture.graph, chaotic, out);
      EXPECT_EQ(out.cliques().fingerprint(), clean.cliques().fingerprint());
      EXPECT_EQ(out.unique_count(), clean.unique_count());
      // The retry cost the sweep paid is visible in the ledger counters.
      EXPECT_GT(result.ledger.retransmitted_messages(), 0u);
    }
  }
}

/// Crash specs whose clocks land mid-pipeline. Both fire inside ARB-LIST
/// (on clustered_workload(64, Rng(10)), p=4, seed 6) once stop_scale 0.1
/// drives the run through it; at the default stop_scale neither is reached.
constexpr const char* kMidRunCrashSpecs[] = {
    "crash=5@2,seed=3", "drop=0.1,retries=3,crash=5@1,crash=29@4,seed=7"};
constexpr double kMidRunStopScale = 0.1;

TEST(PipelineChaos, FingerprintsAreThreadCountInvariantUnderFaults) {
  struct Case {
    const char* spec;
    std::uint64_t graph_seed;
    std::uint64_t seed;
    double stop_scale;
  };
  std::vector<Case> cases = {
      {"drop=0.1,dup=0.05,delay=0.05:2,retries=4,seed=23", 3, 5, 1.0}};
  for (const char* spec : kMidRunCrashSpecs) {
    cases.push_back({spec, 10, 6, kMidRunStopScale});
  }
  for (const Case& tc : cases) {
    SCOPED_TRACE(tc.spec);
    Rng rng(tc.graph_seed);
    const Graph g = clustered_workload(64, rng);
    auto run = [&](int threads) {
      ScopedShardThreads guard(threads);
      FaultPlan plan(FaultSpec::parse(tc.spec));
      KpConfig cfg;
      cfg.p = 4;
      cfg.seed = tc.seed;
      cfg.stop_scale = tc.stop_scale;
      cfg.faults = &plan;
      ListingOutput out(g.node_count());
      const auto result = list_kp_collect(g, cfg, out);
      return std::tuple(out.cliques().fingerprint(), result.total_rounds(),
                        result.ledger.retransmitted_messages(),
                        result.crashed_nodes);
    };
    const auto [fp1, rounds1, retx1, crashed1] = run(1);
    const auto [fp4, rounds4, retx4, crashed4] = run(4);
    EXPECT_EQ(fp1, fp4);
    EXPECT_DOUBLE_EQ(rounds1, rounds4);
    EXPECT_EQ(retx1, retx4) << "the fault history must not depend on threads";
    EXPECT_EQ(crashed1, crashed4);
  }
}

TEST(PipelineChaos, DisabledPlanAttachedCostsExactlyNothing) {
  // cfg.faults pointing at an inert plan must be indistinguishable from
  // cfg.faults == nullptr: same fingerprint, same ledger entry-for-entry.
  Rng rng(6);
  const Graph g = clustered_workload(48, rng);
  KpConfig cfg;
  cfg.p = 4;
  cfg.seed = 9;
  ListingOutput base_out(g.node_count());
  const auto base = list_kp_collect(g, cfg, base_out);

  FaultPlan inert;
  KpConfig with_plan = cfg;
  with_plan.faults = &inert;
  ListingOutput out(g.node_count());
  const auto result = list_kp_collect(g, with_plan, out);

  EXPECT_EQ(out.cliques().fingerprint(), base_out.cliques().fingerprint());
  ASSERT_EQ(result.ledger.entries().size(), base.ledger.entries().size());
  for (std::size_t i = 0; i < base.ledger.entries().size(); ++i) {
    EXPECT_EQ(result.ledger.entries()[i].label, base.ledger.entries()[i].label);
    EXPECT_DOUBLE_EQ(result.ledger.entries()[i].rounds,
                     base.ledger.entries()[i].rounds);
    EXPECT_EQ(result.ledger.entries()[i].messages,
              base.ledger.entries()[i].messages);
  }
  EXPECT_DOUBLE_EQ(result.ledger.retry_rounds(), 0.0);
}

TEST(PipelineChaos, ReplaySchedulesReproduceChaosRunsExactly) {
  Rng rng(8);
  const Graph g = clustered_workload(48, rng);
  FaultPlan plan(FaultSpec::parse("drop=0.15,dup=0.1,retries=3,seed=29"));
  KpConfig cfg;
  cfg.p = 4;
  cfg.seed = 3;
  cfg.faults = &plan;
  ListingOutput out(g.node_count());
  const auto result = list_kp_collect(g, cfg, out);

  std::stringstream schedule;
  plan.serialize(schedule);
  FaultPlan replay = FaultPlan::deserialize(schedule);
  KpConfig replay_cfg = cfg;
  replay_cfg.faults = &replay;
  ListingOutput replay_out(g.node_count());
  const auto replayed = list_kp_collect(g, replay_cfg, replay_out);

  EXPECT_EQ(replay_out.cliques().fingerprint(), out.cliques().fingerprint());
  EXPECT_DOUBLE_EQ(replayed.total_rounds(), result.total_rounds());
  EXPECT_EQ(replayed.ledger.retransmitted_messages(),
            result.ledger.retransmitted_messages());
  EXPECT_EQ(replayed.lost_messages, result.lost_messages);
}

TEST(PipelineChaos, SparseCcKeepsExactOutputUnderFaults) {
  Rng rng(12);
  const Graph g = erdos_renyi_gnm(40, 220, rng);
  SparseCcConfig cfg;
  cfg.p = 3;
  cfg.seed = 4;
  ListingOutput clean(g.node_count());
  const auto base = sparse_cc_list(g, cfg, clean);

  FaultPlan plan(FaultSpec::parse("drop=0.2,retries=1,seed=31"));
  SparseCcConfig chaotic = cfg;
  chaotic.faults = &plan;
  ListingOutput out(g.node_count());
  const auto result = sparse_cc_list(g, chaotic, out);
  expect_ledger_valid(result.ledger);
  EXPECT_EQ(out.cliques().fingerprint(), clean.cliques().fingerprint());
  EXPECT_EQ(result.unique_cliques, base.unique_cliques);
  EXPECT_GE(result.total_rounds(), base.total_rounds());
  EXPECT_GT(result.ledger.retransmitted_messages(), 0u);
}

// ---- Crashes: the survivor contract --------------------------------------

void expect_survivor_contract(const Graph& g, int p,
                              const KpListResult& result,
                              const ListingOutput& out) {
  ASSERT_FALSE(result.crashed_nodes.empty());
  std::vector<char> dead(static_cast<std::size_t>(g.node_count()), 0);
  for (const NodeId v : result.crashed_nodes) {
    dead[static_cast<std::size_t>(v)] = 1;
  }
  // Completeness over G[alive]: every clique of the survivor-induced
  // subgraph is listed.
  std::vector<Edge> alive_edges;
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const Edge& ed = g.edge(e);
    if (!dead[static_cast<std::size_t>(ed.u)] &&
        !dead[static_cast<std::size_t>(ed.v)]) {
      alive_edges.push_back(ed);
    }
  }
  const Graph alive = Graph::from_edges(g.node_count(),
                                        std::move(alive_edges));
  for (const auto& clique : list_k_cliques(alive, p)) {
    EXPECT_TRUE(out.cliques().contains(clique))
        << "alive clique missing from the degraded output";
  }
  // Soundness w.r.t. G: everything listed is a real Kp (cliques touching a
  // crashed node may appear — they were listed before the crash).
  for (const auto& clique : out.cliques().to_vector()) {
    for (std::size_t i = 0; i < clique.size(); ++i) {
      for (std::size_t j = i + 1; j < clique.size(); ++j) {
        EXPECT_TRUE(g.has_edge(clique[i], clique[j]))
            << "listed a non-clique";
      }
    }
  }
}

TEST(PipelineChaos, EntryCrashesSatisfyTheSurvivorContract) {
  for (auto& fixture : chaos_fixtures()) {
    for (const int p : {3, 4}) {
      SCOPED_TRACE(std::string(fixture.name) + " p=" + std::to_string(p));
      FaultPlan plan(FaultSpec::parse("crash=3@0,crash=17@0,seed=2"));
      KpConfig cfg;
      cfg.p = p;
      cfg.seed = 2;
      cfg.faults = &plan;
      ListingOutput out(fixture.graph.node_count());
      const auto result = list_kp_collect(fixture.graph, cfg, out);
      expect_result_valid(result);
      ASSERT_EQ(result.crashed_nodes.size(), 2u);
      EXPECT_EQ(result.crashed_nodes[0], 3);
      EXPECT_EQ(result.crashed_nodes[1], 17);
      expect_survivor_contract(fixture.graph, p, result, out);
    }
  }
}

TEST(PipelineChaos, MidRunCrashesWithMessageFaultsStaySound) {
  // Crashes at later clock ticks land mid-pipeline (after phases have run),
  // combined with recoverable message faults — the hardest regime.
  Rng rng(10);
  const Graph g = clustered_workload(64, rng);
  for (const char* spec : kMidRunCrashSpecs) {
    SCOPED_TRACE(spec);
    FaultPlan plan(FaultSpec::parse(spec));
    KpConfig cfg;
    cfg.p = 4;
    cfg.seed = 6;
    cfg.stop_scale = kMidRunStopScale;
    cfg.faults = &plan;
    ListingOutput out(g.node_count());
    const auto result = list_kp_collect(g, cfg, out);
    expect_result_valid(result);
    ASSERT_FALSE(result.arb_traces.empty()) << "the run never entered ARB-LIST";
    ASSERT_FALSE(result.crashed_nodes.empty()) << "no crash fired";
    expect_survivor_contract(g, 4, result, out);
  }
}

TEST(PipelineChaos, CrashRunsChargeDetectionTimeouts) {
  Rng rng(14);
  const Graph g = erdos_renyi_gnm(40, 260, rng);
  FaultPlan plan(FaultSpec::parse("crash=1@0,seed=2"));
  KpConfig cfg;
  cfg.p = 3;
  cfg.seed = 2;
  cfg.faults = &plan;
  ListingOutput out(g.node_count());
  const auto result = list_kp_collect(g, cfg, out);
  bool saw_timeout = false;
  for (const auto& entry : result.ledger.entries()) {
    saw_timeout |= entry.label == "crash-detect-timeout";
  }
  EXPECT_TRUE(saw_timeout) << "crash detection must be charged";
}

}  // namespace
}  // namespace dcl
