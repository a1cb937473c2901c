// DynamicLister: the batch-dynamic differential contract. The lister
// maintains only the clique count and the order-independent fingerprint;
// after every batch both must equal a from-scratch static enumeration of
// the current snapshot, and the reported delta must reconcile the previous
// from-scratch set with the next one. `cliques()` is itself enumerated from
// the snapshot, so it is checked as an oracle view, not as maintained state.
#include "dynamic/dynamic_lister.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "graph/generators.h"
#include "graph/workloads.h"

namespace dcl {
namespace {

CliqueSet static_recompute(const Graph& g, int p) {
  CliqueSet expected;
  const auto all = list_k_cliques(g, p);
  expected.reserve(all.size());
  for (const auto& c : all) expected.insert(c);
  return expected;
}

/// One checkpoint: maintained state == static recompute, fingerprints
/// equal, and prev + added - removed == current.
void expect_checkpoint(const DynamicLister& lister, const CliqueSet& prev,
                       const ListingDelta& delta) {
  const CliqueSet expected =
      static_recompute(lister.graph().snapshot(), lister.p());
  ASSERT_EQ(lister.clique_count(), expected.size());
  const CliqueSet current = lister.cliques();
  EXPECT_TRUE(current == expected);
  EXPECT_EQ(lister.fingerprint(), expected.fingerprint());
  EXPECT_EQ(lister.last_stats().clique_count, expected.size());
  EXPECT_EQ(lister.last_stats().fingerprint, expected.fingerprint());

  // Delta reconciliation: replay the delta over the previous set.
  CliqueSet replay = prev;
  for (const auto& c : delta.removed) {
    EXPECT_TRUE(replay.erase(c)) << "removed clique missing from prev";
    EXPECT_FALSE(current.contains(c));
  }
  for (const auto& c : delta.added) {
    EXPECT_TRUE(replay.insert(c)) << "added clique already in prev";
    EXPECT_TRUE(current.contains(c));
  }
  EXPECT_TRUE(replay == current);
  EXPECT_TRUE(std::is_sorted(delta.added.begin(), delta.added.end()));
  EXPECT_TRUE(std::is_sorted(delta.removed.begin(), delta.removed.end()));
  EXPECT_EQ(lister.last_stats().cliques_added, delta.added.size());
  EXPECT_EQ(lister.last_stats().cliques_removed, delta.removed.size());
}

void run_stream_differential(const UpdateStream& stream, int p) {
  DynamicLister lister(Graph::from_edges(stream.n, stream.initial), p);
  {
    const CliqueSet expected =
        static_recompute(lister.graph().snapshot(), p);
    ASSERT_TRUE(lister.cliques() == expected);
    ASSERT_EQ(lister.fingerprint(), expected.fingerprint());
  }
  for (const UpdateBatch& batch : stream.batches) {
    const CliqueSet prev = lister.cliques();
    const ListingDelta delta = lister.apply(batch);
    expect_checkpoint(lister, prev, delta);
    EXPECT_LE(lister.orientation().max_out_degree(),
              lister.orientation().cap());
  }
}

TEST(DynamicLister, SlidingWindowDifferential) {
  Rng rng(1);
  run_stream_differential(sliding_window_stream(36, 12, 20, 3, rng), 3);
  Rng rng4(2);
  run_stream_differential(sliding_window_stream(30, 10, 18, 3, rng4), 4);
}

TEST(DynamicLister, ChurnDifferential) {
  Rng rng(3);
  run_stream_differential(churn_stream(32, 140, 12, 10, rng), 3);
  Rng rng4(4);
  run_stream_differential(churn_stream(28, 120, 10, 8, rng4), 4);
}

TEST(DynamicLister, DensifyingCommunityDifferential) {
  Rng rng(5);
  run_stream_differential(densifying_community_stream(32, 4, 12, 14, rng), 3);
  Rng rng4(6);
  run_stream_differential(densifying_community_stream(28, 4, 10, 12, rng4), 4);
}

TEST(DynamicLister, BuildTeardownDifferential) {
  Rng rng(7);
  run_stream_differential(build_teardown_stream(30, 140, 8, rng), 3);
  Rng rng4(8);
  run_stream_differential(build_teardown_stream(26, 110, 8, rng4), 4);
}

TEST(DynamicLister, EmptyBatchesAreNoOps) {
  Rng rng(9);
  const Graph seed = erdos_renyi_gnm(24, 90, rng);
  DynamicLister lister(seed, 3);
  const std::uint64_t count = lister.clique_count();
  const std::uint64_t fp = lister.fingerprint();
  const ListingDelta delta = lister.apply(UpdateBatch{});
  EXPECT_TRUE(delta.added.empty());
  EXPECT_TRUE(delta.removed.empty());
  EXPECT_EQ(lister.clique_count(), count);
  EXPECT_EQ(lister.fingerprint(), fp);
  EXPECT_EQ(lister.last_stats().inserted_edges, 0);
  EXPECT_EQ(lister.last_stats().erased_edges, 0);
}

TEST(DynamicLister, ReinsertedEdgesAcrossBatches) {
  // Delete a triangle edge, then re-insert it: the triangle leaves and
  // returns, and the final state matches the original exactly.
  DynamicLister lister(complete_graph(5), 3);
  const std::uint64_t fp0 = lister.fingerprint();
  const std::uint64_t count0 = lister.clique_count();  // C(5,3) = 10
  EXPECT_EQ(count0, 10u);

  UpdateBatch del;
  del.erase.push_back(make_edge(0, 1));
  const ListingDelta d1 = lister.apply(del);
  EXPECT_EQ(d1.removed.size(), 3u);  // triangles {0,1,x}
  EXPECT_TRUE(d1.added.empty());
  EXPECT_EQ(lister.clique_count(), 7u);

  UpdateBatch re;
  re.insert.push_back(make_edge(0, 1));
  const ListingDelta d2 = lister.apply(re);
  EXPECT_EQ(d2.added.size(), 3u);
  EXPECT_TRUE(d2.removed.empty());
  EXPECT_EQ(lister.clique_count(), count0);
  EXPECT_EQ(lister.fingerprint(), fp0);
}

TEST(DynamicLister, DeleteAndReinsertWithinOneBatchCancels) {
  // Same edge in both lists: deletions apply first, the insert restores
  // it, and the net delta must be empty (the churn cancellation rule).
  DynamicLister lister(complete_graph(6), 4);
  const std::uint64_t fp0 = lister.fingerprint();
  UpdateBatch churn;
  churn.erase.push_back(make_edge(2, 3));
  churn.insert.push_back(make_edge(2, 3));
  const ListingDelta delta = lister.apply(churn);
  EXPECT_TRUE(delta.added.empty());
  EXPECT_TRUE(delta.removed.empty());
  EXPECT_EQ(lister.fingerprint(), fp0);
  EXPECT_EQ(lister.last_stats().erased_edges, 1);
  EXPECT_EQ(lister.last_stats().inserted_edges, 1);
}

TEST(DynamicLister, DeleteEverything) {
  Rng rng(10);
  const Graph seed = erdos_renyi_gnm(20, 80, rng);
  DynamicLister lister(seed, 3);
  UpdateBatch wipe;
  wipe.erase.assign(seed.edges().begin(), seed.edges().end());
  const ListingDelta delta = lister.apply(wipe);
  EXPECT_TRUE(delta.added.empty());
  EXPECT_EQ(delta.removed.size(), lister.last_stats().cliques_removed);
  EXPECT_EQ(lister.clique_count(), 0u);
  EXPECT_EQ(lister.fingerprint(), 0u);
  EXPECT_EQ(lister.graph().edge_count(), 0);
  EXPECT_EQ(lister.orientation().max_out_degree(), 0);
  // The set really is empty, not merely same-sized.
  EXPECT_TRUE(lister.cliques() == CliqueSet{});
}

TEST(DynamicLister, SkippedUpdatesAreCounted) {
  DynamicLister lister(complete_graph(4), 3);
  UpdateBatch batch;
  batch.insert.push_back(make_edge(0, 1));  // already live
  batch.erase.push_back(make_edge(0, 1));   // erased below, then re-added
  batch.erase.push_back(make_edge(0, 1));   // second erase: already gone
  const ListingDelta delta = lister.apply(batch);
  EXPECT_EQ(lister.last_stats().erased_edges, 1);
  EXPECT_EQ(lister.last_stats().skipped_erases, 1);
  EXPECT_EQ(lister.last_stats().inserted_edges, 1);
  EXPECT_EQ(lister.last_stats().skipped_inserts, 0);
  EXPECT_TRUE(delta.added.empty());
  EXPECT_TRUE(delta.removed.empty());
}

TEST(DynamicLister, PairsModeTracksEdges) {
  // p = 2: the maintained set is exactly the live edge set.
  DynamicLister lister(8, 2);
  UpdateBatch batch;
  batch.insert.push_back(make_edge(0, 1));
  batch.insert.push_back(make_edge(2, 3));
  lister.apply(batch);
  EXPECT_EQ(lister.clique_count(), 2u);
  EXPECT_TRUE(lister.cliques().contains(Clique{0, 1}));
  UpdateBatch del;
  del.erase.push_back(make_edge(0, 1));
  const ListingDelta delta = lister.apply(del);
  ASSERT_EQ(delta.removed.size(), 1u);
  EXPECT_EQ(delta.removed[0], (Clique{0, 1}));
  EXPECT_EQ(lister.clique_count(), 1u);
}

/// Applies `batch` and checks the exact delta — the sorted difference of
/// the from-scratch sets before and after — plus count and fingerprint.
ListingDelta apply_exact(DynamicLister& lister, const UpdateBatch& batch) {
  const CliqueSet before =
      static_recompute(lister.graph().snapshot(), lister.p());
  const ListingDelta delta = lister.apply(batch);
  const CliqueSet after =
      static_recompute(lister.graph().snapshot(), lister.p());
  std::vector<Clique> added = after.difference(before);
  std::vector<Clique> removed = before.difference(after);
  std::sort(added.begin(), added.end());
  std::sort(removed.begin(), removed.end());
  EXPECT_EQ(delta.added, added);
  EXPECT_EQ(delta.removed, removed);
  EXPECT_EQ(lister.clique_count(), after.size());
  EXPECT_EQ(lister.fingerprint(), after.fingerprint());
  EXPECT_EQ(lister.last_stats().fingerprint, after.fingerprint());
  return delta;
}

/// Plants a clique on `nodes` into `edges`.
void plant(std::vector<Edge>& edges, const std::vector<NodeId>& nodes) {
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      edges.push_back(make_edge(nodes[i], nodes[j]));
    }
  }
}

/// Drives a lister whose p-cliques take the key lane `lane` through an
/// erase batch, a batch that completes `extra` into a (p+1)-clique, and an
/// erase+reinsert churn batch that must net to an empty delta.
void lane_scenario(NodeId n, int p, CliqueKeyFormat::Lane lane,
                   const std::vector<std::vector<NodeId>>& planted,
                   const std::vector<NodeId>& extra) {
  SCOPED_TRACE("n=" + std::to_string(n) + " p=" + std::to_string(p));
  ASSERT_EQ(CliqueKeyFormat(n).lane(planted[0].data(),
                                    static_cast<std::size_t>(p)),
            lane);
  std::vector<Edge> edges;
  for (const auto& nodes : planted) plant(edges, nodes);
  // `extra` is planted without the edge between its first two nodes.
  plant(edges, std::vector<NodeId>(extra.begin() + 1, extra.end()));
  for (std::size_t i = 2; i < extra.size(); ++i) {
    edges.push_back(make_edge(extra[0], extra[i]));
  }
  DynamicLister lister(Graph::from_edges(n, edges), p);
  const CliqueSet seed = static_recompute(lister.graph().snapshot(), p);
  ASSERT_EQ(lister.clique_count(), seed.size());
  ASSERT_EQ(lister.fingerprint(), seed.fingerprint());

  UpdateBatch cut;
  cut.erase.push_back(make_edge(planted[0][0], planted[0][1]));
  const ListingDelta d1 = apply_exact(lister, cut);
  EXPECT_TRUE(d1.added.empty());
  EXPECT_FALSE(d1.removed.empty());

  UpdateBatch complete;
  complete.insert.push_back(make_edge(extra[0], extra[1]));
  const ListingDelta d2 = apply_exact(lister, complete);
  // The p-cliques of K_{p+1} through the new edge: C(p-1, p-2) = p-1.
  EXPECT_EQ(d2.added.size(), extra.size() - 2);
  EXPECT_TRUE(d2.removed.empty());

  const std::uint64_t count = lister.clique_count();
  const std::uint64_t fp = lister.fingerprint();
  UpdateBatch churn;
  churn.erase.push_back(make_edge(extra[0], extra[1]));
  churn.erase.push_back(make_edge(planted.back()[1], planted.back()[2]));
  churn.insert.push_back(make_edge(planted.back()[1], planted.back()[2]));
  churn.insert.push_back(make_edge(extra[0], extra[1]));
  const ListingDelta d3 = apply_exact(lister, churn);
  EXPECT_TRUE(d3.added.empty());
  EXPECT_TRUE(d3.removed.empty());
  EXPECT_EQ(lister.clique_count(), count);
  EXPECT_EQ(lister.fingerprint(), fp);
  EXPECT_EQ(lister.last_stats().erased_edges, 2);
  EXPECT_EQ(lister.last_stats().inserted_edges, 2);
}

TEST(DynamicLister, WideKeyLaneTracksExactDeltas) {
  // n = 65,536 makes a field 17 bits wide: a K4 key needs 68 bits, so the
  // batch logs hold 128-bit keys. Planted K5s spread over the id range.
  lane_scenario(65536, 4, CliqueKeyFormat::Lane::wide,
                {{0, 9000, 21000, 40000, 65535},
                 {3, 17, 30001, 52000, 65000},
                 {100, 101, 102, 103, 104}},
                {5, 65534, 12345, 23456, 34567});
}

TEST(DynamicLister, SpillLaneTracksExactDeltas) {
  // p = 9 exceeds the widest packed key: the ten K9 of a planted K10 go to
  // the spill set, which the delta merge sorts itself.
  lane_scenario(24, 9, CliqueKeyFormat::Lane::spill,
                {{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}},
                {10, 11, 12, 13, 14, 15, 16, 17, 18, 19});
  // p = 8 on 17-bit fields overflows 128 bits but fits CliqueSet's packed
  // table, whose hash-order walk must not leak into the delta order.
  lane_scenario(70000, 8, CliqueKeyFormat::Lane::spill,
                {{1, 7000, 14000, 21000, 28000, 35000, 42000, 49000, 69999}},
                {2, 69998, 3, 4, 5, 6, 7, 8, 9});
}

TEST(DynamicLister, FreshListerFromEmptyGraphGrowsCorrectly) {
  // Start from nothing and build a known structure: K5 minus one edge has
  // C(5,3) - 3 = 7 triangles; completing it restores all 10.
  DynamicLister lister(5, 3);
  EXPECT_EQ(lister.clique_count(), 0u);
  UpdateBatch build;
  for (NodeId u = 0; u < 5; ++u) {
    for (NodeId v = static_cast<NodeId>(u + 1); v < 5; ++v) {
      if (!(u == 0 && v == 1)) build.insert.push_back(make_edge(u, v));
    }
  }
  lister.apply(build);
  EXPECT_EQ(lister.clique_count(), 7u);
  UpdateBatch last;
  last.insert.push_back(make_edge(0, 1));
  const ListingDelta delta = lister.apply(last);
  EXPECT_EQ(delta.added.size(), 3u);
  EXPECT_EQ(lister.clique_count(), 10u);
}

}  // namespace
}  // namespace dcl
