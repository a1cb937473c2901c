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
  out.report(0, c1);
  out.report(4, c1_scrambled);  // same clique from another node
  out.report(1, c2);
  EXPECT_EQ(out.unique_count(), 2u);
  EXPECT_EQ(out.total_reports(), 3u);
  EXPECT_DOUBLE_EQ(out.duplication_factor(), 1.5);
  EXPECT_EQ(out.reports_of(0), 1u);
  EXPECT_EQ(out.reports_of(4), 1u);
  EXPECT_EQ(out.reports_of(2), 0u);
  EXPECT_EQ(out.max_reports_per_node(), 1u);
}

TEST(ListingOutput, EmptyHasZeroDuplication) {
  ListingOutput out(3);
  EXPECT_DOUBLE_EQ(out.duplication_factor(), 0.0);
  EXPECT_EQ(out.unique_count(), 0u);
  EXPECT_EQ(out.max_reports_per_node(), 0u);
}

TEST(ListingOutput, CliquesAccessible) {
  ListingOutput out(4);
  const NodeId c[] = {3, 1, 0};
  out.report(2, c);
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
  for (NodeId v = 0; v < n; ++v) out.report(v, clique);
  EXPECT_EQ(out.unique_count(), 1u);
  EXPECT_EQ(out.total_reports(), static_cast<std::uint64_t>(n));
  EXPECT_DOUBLE_EQ(out.duplication_factor(), static_cast<double>(n));
  EXPECT_EQ(out.max_reports_per_node(), 1u);
  for (NodeId v = 0; v < n; ++v) EXPECT_EQ(out.reports_of(v), 1u);
}

TEST(ListingOutput, MaxReportsTracksRunningMaximum) {
  // max_reports_per_node is maintained at report time, not rescanned;
  // interleave reporters so the maximum moves between nodes.
  ListingOutput out(3);
  const NodeId a[] = {0, 1, 2};
  const NodeId b[] = {1, 2, 3};
  const NodeId c[] = {0, 2, 3};
  out.report(1, a);
  EXPECT_EQ(out.max_reports_per_node(), 1u);
  out.report(2, a);
  out.report(2, b);
  EXPECT_EQ(out.max_reports_per_node(), 2u);
  out.report(0, a);
  out.report(0, b);
  out.report(0, c);
  EXPECT_EQ(out.max_reports_per_node(), 3u);
  EXPECT_EQ(out.unique_count(), 3u);
  EXPECT_EQ(out.total_reports(), 6u);
}

/// Per-node totals, total reports and max, and the clique set of `a` and
/// `b` agree exactly.
void expect_same_output(const ListingOutput& a, const ListingOutput& b,
                        NodeId n) {
  EXPECT_EQ(a.unique_count(), b.unique_count());
  EXPECT_EQ(a.total_reports(), b.total_reports());
  EXPECT_EQ(a.max_reports_per_node(), b.max_reports_per_node());
  EXPECT_DOUBLE_EQ(a.duplication_factor(), b.duplication_factor());
  for (NodeId v = 0; v < n; ++v) {
    EXPECT_EQ(a.reports_of(v), b.reports_of(v)) << "v " << v;
  }
  EXPECT_EQ(a.cliques().fingerprint(), b.cliques().fingerprint());
  EXPECT_TRUE(a.cliques() == b.cliques());
}

TEST(ListingOutput, MergeFromReproducesSequentialCounters) {
  // The cluster-parallel ARB-LIST contract: splitting a report stream
  // across shard buffers and merging them must land on the exact counters
  // and clique set of the sequential execution — including cross-shard
  // duplicates, the running per-node maximum, and mixed clique widths —
  // in shard order, reversed, or shuffled.
  const NodeId n = 6;
  const std::vector<Clique> cliques = {
      {0, 1, 2}, {1, 2, 3}, {2, 3, 4}, {0, 1, 2},    {3, 4, 5},
      {1, 2, 3}, {5, 3, 4}, {0, 1, 2, 3}, {2, 1, 0}, {0, 1, 2, 3, 4, 5}};
  const NodeId reporters[] = {0, 1, 1, 2, 5, 5, 4, 0, 3, 1};
  const std::size_t shard_of[] = {0, 0, 0, 1, 1, 1, 2, 2, 3, 3};
  constexpr std::size_t kShards = 4;

  ListingOutput sequential(n);
  std::vector<ListingOutput> shards(kShards, ListingOutput(n));
  for (std::size_t i = 0; i < cliques.size(); ++i) {
    sequential.report(reporters[i], cliques[i]);
    shards[shard_of[i]].report(reporters[i], cliques[i]);
  }
  EXPECT_EQ(sequential.unique_count(), 6u);

  std::vector<std::size_t> order = {0, 1, 2, 3};
  const std::vector<std::vector<std::size_t>> orders = {
      order, {3, 2, 1, 0}, {2, 0, 3, 1}};
  for (const auto& o : orders) {
    ListingOutput merged(n);
    for (const std::size_t s : o) merged.merge_from(shards[s]);
    expect_same_output(merged, sequential, n);
  }

  // Merging into a collector that already holds reports (the global out
  // between ARB-LIST iterations) accumulates rather than replaces, also
  // after the collector's log has been read and sorted.
  ListingOutput global(n);
  const NodeId pre[] = {0, 4, 5};
  global.report(3, pre);
  EXPECT_EQ(global.unique_count(), 1u);
  global.merge_from(shards[0]);
  EXPECT_EQ(global.total_reports(), 4u);
  EXPECT_EQ(global.unique_count(), 4u);
  EXPECT_EQ(global.reports_of(3), 1u);
  EXPECT_EQ(global.reports_of(1), 2u);
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
    out.report(0, k3);
    out.report(1, k4);
    out.report(2, k4_shifted);
    out.report(3, k3_tail);
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
  // must land on the count, fingerprint, clique set and per-node totals of
  // a reference CliqueSet fed the same stream.
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
    std::vector<std::uint64_t> per_node(static_cast<std::size_t>(c.n), 0);
    std::uint64_t reports = 0;
    CliqueSet reference;
    for (std::size_t i = 0; i < cliques.size(); ++i) {
      const std::uint64_t copies = 1 + rng.next_below(3);
      for (std::uint64_t k = 0; k < copies; ++k) {
        Clique shuffled = cliques[i];
        rng.shuffle(shuffled);
        const auto reporter = static_cast<NodeId>(
            rng.next_below(static_cast<std::uint64_t>(c.n)));
        reference.insert(shuffled);
        whole.report(reporter, shuffled);
        shards[rng.next_below(kShards)].report(reporter, shuffled);
        ++per_node[static_cast<std::size_t>(reporter)];
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
      std::uint64_t max_reports = 0;
      for (NodeId v = 0; v < c.n; ++v) {
        const std::uint64_t expected = per_node[static_cast<std::size_t>(v)];
        max_reports = std::max(max_reports, expected);
        if (out->reports_of(v) != expected) {
          ADD_FAILURE() << "reports_of(" << v << ")";
          break;
        }
      }
      EXPECT_EQ(out->max_reports_per_node(), max_reports);
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
