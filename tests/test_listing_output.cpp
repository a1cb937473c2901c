#include "core/listing_types.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "graph/generators.h"

namespace dcl {
namespace {

TEST(ListingOutput, CountsAndDeduplicates) {
  ListingOutput out(5);
  const NodeId c1[] = {0, 1, 2};
  const NodeId c1_scrambled[] = {2, 0, 1};
  const NodeId c2[] = {1, 2, 3};
  out.report(c1);
  out.report(c1_scrambled);  // same clique from another node
  out.report(c2);
  EXPECT_FALSE(out.exact());
  EXPECT_EQ(out.unique_count(), 2u);
  EXPECT_EQ(out.total_reports(), 3u);
  EXPECT_DOUBLE_EQ(out.duplication_factor(), 1.5);
}

TEST(ListingOutput, EmptyHasZeroDuplication) {
  ListingOutput out(3);
  EXPECT_DOUBLE_EQ(out.duplication_factor(), 0.0);
  EXPECT_EQ(out.unique_count(), 0u);
  EXPECT_TRUE(out.exact());
}

TEST(ListingOutput, CliquesAccessible) {
  ListingOutput out(4);
  const NodeId c[] = {3, 1, 0};
  out.report(c);
  EXPECT_TRUE(out.cliques().contains({0, 1, 3}));
  EXPECT_FALSE(out.cliques().contains({0, 1, 2}));
}

TEST(ListingOutput, UnionSemanticsUnderMaximalDuplication) {
  // The Section 1 guarantee is about the union of node outputs: if every
  // node reports the same clique, the collector must still count one
  // unique instance, with duplication factor n.
  const NodeId n = 7;
  ListingOutput out(n);
  const NodeId clique[] = {0, 2, 5};
  for (NodeId v = 0; v < n; ++v) out.report(clique);
  EXPECT_EQ(out.unique_count(), 1u);
  EXPECT_EQ(out.total_reports(), static_cast<std::uint64_t>(n));
  EXPECT_DOUBLE_EQ(out.duplication_factor(), static_cast<double>(n));
}

TEST(ListingOutput, OwnedReportsCountWithoutTheSortUntilAPlainReport) {
  // Owned reports keep the count and the fingerprint as running values:
  // reading them leaves the log unsorted. One plain report of a clique
  // already owned makes the output inexact; the count then comes from the
  // sort and still drops the repeat.
  const NodeId n = 9;
  const std::vector<Clique> cliques = {
      {0, 1, 2}, {8, 3, 1}, {2, 5, 4, 7}, {1, 2, 3, 4, 5, 6, 7, 8, 0}};
  ListingOutput out(n);
  for (const Clique& c : cliques) out.report_owned(c);
  out.count_unowned(3);
  const CliqueSet reference(cliques);
  EXPECT_TRUE(out.exact());
  EXPECT_EQ(out.unique_count(), cliques.size());
  EXPECT_EQ(out.cliques().fingerprint(), reference.fingerprint());
  EXPECT_EQ(out.total_reports(), cliques.size() + 3);
  EXPECT_DOUBLE_EQ(out.duplication_factor(), 7.0 / 4.0);
  EXPECT_TRUE(out.cliques() == reference);  // an ordered read: sorts

  out.report(cliques[1]);
  EXPECT_FALSE(out.exact());
  EXPECT_EQ(out.unique_count(), cliques.size());
  EXPECT_EQ(out.cliques().fingerprint(), reference.fingerprint());
  EXPECT_EQ(out.total_reports(), cliques.size() + 4);
}

TEST(ListingOutput, MayRepeatMarkSortsOwnedRepeats) {
  // Owners in two clusters may report one clique twice; once marked, the
  // output counts through the sort, also after a merge.
  const NodeId clique[] = {4, 1, 6};
  const NodeId other[] = {0, 1, 6};
  ListingOutput first(7);
  ListingOutput second(7);
  first.report_owned(clique);
  second.report_owned(clique);
  second.report_owned(other);
  second.mark_may_repeat();
  EXPECT_FALSE(second.exact());
  first.merge_from(second);
  EXPECT_FALSE(first.exact());
  EXPECT_EQ(first.unique_count(), 2u);
  EXPECT_EQ(first.total_reports(), 3u);
  EXPECT_EQ(first.cliques().fingerprint(),
            CliqueSet(std::vector<Clique>{{1, 4, 6}, {0, 1, 6}}).fingerprint());
}

/// Total reports and the clique set of `a` and `b` agree exactly.
void expect_same_output(const ListingOutput& a, const ListingOutput& b) {
  EXPECT_EQ(a.unique_count(), b.unique_count());
  EXPECT_EQ(a.total_reports(), b.total_reports());
  EXPECT_DOUBLE_EQ(a.duplication_factor(), b.duplication_factor());
  EXPECT_EQ(a.cliques().fingerprint(), b.cliques().fingerprint());
  EXPECT_TRUE(a.cliques() == b.cliques());
}

TEST(ListingOutput, MergeFromReproducesSequentialCounters) {
  // The cluster-parallel ARB-LIST contract: splitting a report stream
  // across shard buffers and merging them must land on the exact counters
  // and clique set of the sequential execution — including cross-shard
  // duplicates and mixed clique widths — in shard order, reversed, or
  // shuffled.
  const NodeId n = 6;
  const std::vector<Clique> cliques = {
      {0, 1, 2}, {1, 2, 3}, {2, 3, 4}, {0, 1, 2},    {3, 4, 5},
      {1, 2, 3}, {5, 3, 4}, {0, 1, 2, 3}, {2, 1, 0}, {0, 1, 2, 3, 4, 5}};
  const std::size_t shard_of[] = {0, 0, 0, 1, 1, 1, 2, 2, 3, 3};
  constexpr std::size_t kShards = 4;

  ListingOutput sequential(n);
  std::vector<ListingOutput> shards(kShards, ListingOutput(n));
  for (std::size_t i = 0; i < cliques.size(); ++i) {
    sequential.report(cliques[i]);
    shards[shard_of[i]].report(cliques[i]);
  }
  EXPECT_EQ(sequential.unique_count(), 6u);

  std::vector<std::size_t> order = {0, 1, 2, 3};
  const std::vector<std::vector<std::size_t>> orders = {
      order, {3, 2, 1, 0}, {2, 0, 3, 1}};
  for (const auto& o : orders) {
    ListingOutput merged(n);
    for (const std::size_t s : o) merged.merge_from(shards[s]);
    expect_same_output(merged, sequential);
  }

  // Merging into a collector that already holds reports (the global out
  // between ARB-LIST iterations) accumulates rather than replaces, also
  // after the collector's log has been read and sorted.
  ListingOutput global(n);
  const NodeId pre[] = {0, 4, 5};
  global.report(pre);
  EXPECT_EQ(global.unique_count(), 1u);
  global.merge_from(shards[0]);
  EXPECT_EQ(global.total_reports(), 4u);
  EXPECT_EQ(global.unique_count(), 4u);
}

TEST(ListingOutput, PrefixSharingCliquesOfDifferentWidthStayDistinct) {
  // Fields store id+1, so 0 marks padding: a K3 never packs to the same
  // key as a K4 that extends it, whatever the ids.
  ListingOutput out(8);
  const NodeId k3[] = {0, 1, 2};
  const NodeId k4[] = {2, 1, 0, 3};
  const NodeId k4_shifted[] = {0, 1, 2, 7};
  const NodeId k3_tail[] = {1, 2, 3};
  for (int rep = 0; rep < 2; ++rep) {
    out.report(k3);
    out.report(k4);
    out.report(k4_shifted);
    out.report(k3_tail);
  }
  const CliqueSet expected(std::vector<Clique>{
      {0, 1, 2}, {0, 1, 2, 3}, {0, 1, 2, 7}, {1, 2, 3}});
  EXPECT_EQ(out.unique_count(), 4u);
  EXPECT_EQ(out.total_reports(), 8u);
  EXPECT_EQ(out.cliques().fingerprint(), expected.fingerprint());
  EXPECT_TRUE(out.cliques() == expected);
  EXPECT_FALSE(out.cliques().contains({0, 1}));
  EXPECT_FALSE(out.cliques().contains({0, 1, 2, 3, 7}));
  // Run order: narrower cliques first, then lexicographic.
  EXPECT_EQ(out.cliques().front(), (Clique{0, 1, 2}));
  const auto listed = out.cliques().to_vector();
  ASSERT_EQ(listed.size(), 4u);
  EXPECT_EQ(listed[1], (Clique{1, 2, 3}));
  EXPECT_EQ(listed[3], (Clique{0, 1, 2, 7}));
}

TEST(CliqueKeyFormat, LanesSwitchAtThe64And128BitLimits) {
  // A field holds ids in [0, n) as id+1, bit_width(n) bits wide: the
  // narrow lane holds p fields when p·bits ≤ 64, the wide lane when
  // p·bits ≤ 128; wider cliques (or p > 8) take the spill set.
  using Lane = CliqueKeyFormat::Lane;
  const auto lane_of = [](NodeId n, int p) {
    const CliqueKeyFormat f(n);
    std::vector<NodeId> ids(static_cast<std::size_t>(p));
    for (int i = 0; i < p; ++i) ids[static_cast<std::size_t>(i)] = n - p + i;
    return f.lane(ids.data(), ids.size());
  };
  for (int p = 3; p <= 8; ++p) {
    const int narrow_bits = 64 / p;
    if (narrow_bits < 31) {
      const NodeId below = (NodeId{1} << narrow_bits) - 1;
      EXPECT_EQ(lane_of(below, p), Lane::narrow) << "p=" << p;
      EXPECT_NE(lane_of(below + 1, p), Lane::narrow) << "p=" << p;
    }
    const int wide_bits = 128 / p;
    if (wide_bits < 31) {
      const NodeId below = (NodeId{1} << wide_bits) - 1;
      EXPECT_EQ(lane_of(below, p), Lane::wide) << "p=" << p;
      EXPECT_EQ(lane_of(below + 1, p), Lane::spill) << "p=" << p;
    }
  }
  EXPECT_EQ(lane_of(64, 9), Lane::spill);
  // Ids outside [0, n) are never packed.
  const CliqueKeyFormat f(10);
  const NodeId out_of_range[] = {1, 2, 10};
  const NodeId negative[] = {-1, 2, 3};
  EXPECT_EQ(f.lane(out_of_range, 3), Lane::spill);
  EXPECT_EQ(f.lane(negative, 3), Lane::spill);
}

TEST(ListingOutput, KeyWidthBoundariesMatchCliqueSet) {
  // For p in 3..9 and n on either side of the 64-bit and 128-bit packing
  // limits (up to 2^21 nodes), a report stream — every clique in random
  // vertex order, duplicates split across shards, logs read midway —
  // must land on the count, fingerprint and clique set of a reference
  // CliqueSet fed the same stream.
  struct Case {
    int p;
    NodeId n;
  };
  std::vector<Case> cases;
  for (int p = 3; p <= 8; ++p) {
    for (const int limit : {64, 128}) {
      const int bits = limit / p;
      if (bits > 21) continue;
      cases.push_back({p, (NodeId{1} << bits) - 1});
      cases.push_back({p, NodeId{1} << bits});
    }
  }
  // p = 9 exceeds the widest packed key: the ten K9 of a planted K10 take
  // the spill path.
  cases.push_back({9, 40});
  Rng rng(2024);
  const auto planted = planted_clique(40, 10, 0.05, rng);
  for (const Case& c : cases) {
    SCOPED_TRACE("p=" + std::to_string(c.p) + " n=" + std::to_string(c.n));
    const auto width = static_cast<std::size_t>(c.p);
    std::vector<Clique> cliques;
    CliqueSet distinct;
    if (c.p == 9) {
      cliques = list_k_cliques(planted.graph, 9);
      ASSERT_GE(cliques.size(), 10u);
    }
    // Otherwise distinct random cliques; the first one spans the top id so
    // the highest field value is exercised.
    while (cliques.size() < 60 && c.p < 9) {
      Clique q;
      if (cliques.empty()) q.push_back(c.n - 1);
      while (q.size() < width) {
        const auto v = static_cast<NodeId>(
            rng.next_below(static_cast<std::uint64_t>(c.n)));
        if (std::find(q.begin(), q.end(), v) == q.end()) q.push_back(v);
      }
      if (distinct.insert(q)) cliques.push_back(q);
    }
    constexpr std::size_t kShards = 3;
    ListingOutput whole(c.n);
    std::vector<ListingOutput> shards(kShards, ListingOutput(c.n));
    std::uint64_t reports = 0;
    CliqueSet reference;
    for (std::size_t i = 0; i < cliques.size(); ++i) {
      const std::uint64_t copies = 1 + rng.next_below(3);
      for (std::uint64_t k = 0; k < copies; ++k) {
        Clique shuffled = cliques[i];
        rng.shuffle(shuffled);
        reference.insert(shuffled);
        whole.report(shuffled);
        shards[rng.next_below(kShards)].report(shuffled);
        ++reports;
      }
      if (i == cliques.size() / 2) {
        (void)whole.unique_count();
        (void)shards[0].unique_count();
      }
    }
    ListingOutput merged(c.n);
    for (const ListingOutput& s : shards) merged.merge_from(s);
    for (const ListingOutput* out : {&whole, &merged}) {
      EXPECT_EQ(out->unique_count(), reference.size());
      EXPECT_EQ(out->total_reports(), reports);
      EXPECT_EQ(out->cliques().fingerprint(), reference.fingerprint());
      EXPECT_TRUE(out->cliques() == reference);
      for (const Clique& q : cliques) EXPECT_TRUE(out->cliques().contains(q));
    }
  }
}

TEST(CliqueLog, ClearEmptiesTheRunAndRefillsLikeAFreshLog) {
  // n = 70,000 gives 17-bit fields: K3 keys are narrow, K5 keys wide, K8
  // keys spill into the packed set and K9 into its node-based one, so
  // clear() must reset every lane.
  const NodeId n = 70000;
  Rng rng(77);
  const auto random_clique = [&](std::size_t width) {
    Clique q;
    while (q.size() < width) {
      const auto v = static_cast<NodeId>(
          rng.next_below(static_cast<std::uint64_t>(n)));
      if (std::find(q.begin(), q.end(), v) == q.end()) q.push_back(v);
    }
    return q;
  };
  const auto fill = [&](CliqueLog& log, std::vector<Clique>& appended) {
    for (const std::size_t width : {3, 5, 8, 9}) {
      for (int i = 0; i < 20; ++i) {
        appended.push_back(random_clique(width));
        log.append(appended.back());
        log.append(appended.back());  // a duplicate the run must drop
      }
    }
  };
  CliqueLog reused(n);
  std::vector<Clique> first;
  fill(reused, first);
  ASSERT_EQ(reused.run().size(), first.size());
  reused.clear();
  EXPECT_EQ(reused.run().size(), 0u);
  EXPECT_EQ(reused.run().fingerprint(), 0u);
  EXPECT_TRUE(reused.run() == CliqueSet{});

  std::vector<Clique> second;
  fill(reused, second);
  CliqueLog fresh(n);
  for (const Clique& q : second) fresh.append(q);
  const CliqueSet reference(second);
  EXPECT_EQ(reused.run().size(), reference.size());
  EXPECT_EQ(reused.run().fingerprint(), reference.fingerprint());
  EXPECT_TRUE(reused.run() == fresh.run());
  EXPECT_TRUE(reused.run() == reference);
  EXPECT_EQ(reused.run().to_vector(), fresh.run().to_vector());
  for (const Clique& q : first) {
    if (!reference.contains(q)) {
      EXPECT_FALSE(reused.run().contains(q));
    }
  }
}

TEST(CliqueLog, OwnedAppendsLeaveTheLogUnsortedUntilAnOrderedRead) {
  // Every lane at n = 70,000 (narrow K3, wide K5, packed-spill K8,
  // node-spill K9): the size and fingerprint of an exact log come from the
  // owned count and running hash, with no sort; an ordered read sorts and
  // the unique pass drops nothing.
  const NodeId n = 70000;
  Rng rng(79);
  CliqueLog log(n);
  CliqueSet reference;
  for (const std::size_t width : {3, 5, 8, 9}) {
    for (int i = 0; i < 30; ++i) {
      Clique q;
      while (q.size() < width) {
        const auto v = static_cast<NodeId>(
            rng.next_below(static_cast<std::uint64_t>(n)));
        if (std::find(q.begin(), q.end(), v) == q.end()) q.push_back(v);
      }
      if (reference.insert(q)) log.append_owned(q);
    }
  }
  EXPECT_TRUE(log.exact());
  EXPECT_FALSE(log.sorted());
  EXPECT_EQ(log.run().size(), reference.size());
  EXPECT_EQ(log.run().fingerprint(), reference.fingerprint());
  EXPECT_FALSE(log.sorted()) << "size or fingerprint sorted an exact log";
  EXPECT_TRUE(log.run() == reference);
  EXPECT_TRUE(log.sorted());
  EXPECT_TRUE(log.exact());
  EXPECT_EQ(log.run().to_vector().size(), reference.size());

  // A plain append of a held clique: inexact until the sort drops it.
  const Clique again = log.run().front();
  log.append(again);
  EXPECT_FALSE(log.exact());
  EXPECT_EQ(log.run().size(), reference.size());
  EXPECT_EQ(log.run().fingerprint(), reference.fingerprint());
  log.clear();
  EXPECT_TRUE(log.exact());
  EXPECT_EQ(log.run().size(), 0u);
  EXPECT_EQ(log.run().fingerprint(), 0u);
}

TEST(CliqueLog, DifferenceIsTheSortedOneSidedMembers) {
  // Per lane (narrow K3, wide K5, packed-spill K8, node-spill K9 at
  // n = 70,000), two runs sharing some members split into exactly the
  // sorted one-sided sets.
  const NodeId n = 70000;
  Rng rng(78);
  for (const std::size_t width : {3, 5, 8, 9}) {
    SCOPED_TRACE("width=" + std::to_string(width));
    CliqueLog a(n);
    CliqueLog b(n);
    CliqueSet in_a;
    CliqueSet in_b;
    for (int i = 0; i < 60; ++i) {
      Clique q;
      while (q.size() < width) {
        const auto v = static_cast<NodeId>(
            rng.next_below(static_cast<std::uint64_t>(n)));
        if (std::find(q.begin(), q.end(), v) == q.end()) q.push_back(v);
      }
      const std::uint64_t side = rng.next_below(3);  // a, b, or both
      if (side != 1) {
        a.append(q);
        in_a.insert(q);
      }
      if (side != 0) {
        b.append(q);
        in_b.insert(q);
      }
    }
    std::vector<Clique> only_a;
    std::vector<Clique> only_b;
    a.run().difference(b.run(), only_a, only_b);
    std::vector<Clique> want_a = in_a.difference(in_b);
    std::vector<Clique> want_b = in_b.difference(in_a);
    std::sort(want_a.begin(), want_a.end());
    std::sort(want_b.begin(), want_b.end());
    EXPECT_EQ(only_a, want_a);
    EXPECT_EQ(only_b, want_b);
  }
}

TEST(KpConfigDefaults, MatchPaperStructure) {
  const KpConfig cfg;
  EXPECT_EQ(cfg.p, 4);
  EXPECT_FALSE(cfg.k4_fast);
  EXPECT_TRUE(cfg.enable_bad_edges);
  EXPECT_EQ(cfg.in_cluster_charge, InClusterChargeMode::measured);
  EXPECT_LT(cfg.stop_exponent_override, 0.0);  // derive from p by default
}

}  // namespace
}  // namespace dcl
