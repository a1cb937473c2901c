// Slow sweeps for the batch-dynamic engine (ctest label: slow): longer
// streams over all four update-stream families, p ∈ {3,4,5}, checked
// against a from-scratch static recompute at every checkpoint. The lister
// maintains only the clique count and fingerprint, so each checkpoint
// checks both and reconciles the reported delta: the previous from-scratch
// set plus `added` minus `removed` must equal the current one. The fast
// counterpart (small instances, edge cases) is test_dynamic_lister.cpp.
#include "dynamic/dynamic_lister.h"

#include <gtest/gtest.h>

#include "common/rng.h"
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

void sweep(const UpdateStream& stream, int p) {
  DynamicLister lister(Graph::from_edges(stream.n, stream.initial), p);
  CliqueSet prev = static_recompute(lister.graph().snapshot(), p);
  std::uint64_t batch_index = 0;
  for (const UpdateBatch& batch : stream.batches) {
    const ListingDelta delta = lister.apply(batch);
    const CliqueSet expected =
        static_recompute(lister.graph().snapshot(), p);
    ASSERT_EQ(lister.clique_count(), expected.size())
        << "p=" << p << " batch=" << batch_index;
    ASSERT_TRUE(lister.cliques() == expected)
        << "p=" << p << " batch=" << batch_index;
    ASSERT_EQ(lister.fingerprint(), expected.fingerprint())
        << "p=" << p << " batch=" << batch_index;
    for (const Clique& c : delta.removed) {
      ASSERT_TRUE(prev.erase(c))
          << "removed clique absent before: p=" << p
          << " batch=" << batch_index;
    }
    for (const Clique& c : delta.added) {
      ASSERT_TRUE(prev.insert(c))
          << "added clique present before: p=" << p
          << " batch=" << batch_index;
    }
    ASSERT_TRUE(prev == expected) << "p=" << p << " batch=" << batch_index;
    ++batch_index;
  }
}

TEST(DynamicSweep, SlidingWindow) {
  for (const int p : {3, 4, 5}) {
    Rng rng(100 + static_cast<std::uint64_t>(p));
    sweep(sliding_window_stream(110, 40, 60, 6, rng), p);
  }
}

TEST(DynamicSweep, Churn) {
  for (const int p : {3, 4, 5}) {
    Rng rng(200 + static_cast<std::uint64_t>(p));
    sweep(churn_stream(100, 1200, 40, 40, rng), p);
  }
}

TEST(DynamicSweep, DensifyingCommunity) {
  for (const int p : {3, 4, 5}) {
    Rng rng(300 + static_cast<std::uint64_t>(p));
    sweep(densifying_community_stream(90, 5, 36, 36, rng), p);
  }
}

TEST(DynamicSweep, BuildTeardown) {
  for (const int p : {3, 4, 5}) {
    Rng rng(400 + static_cast<std::uint64_t>(p));
    sweep(build_teardown_stream(84, 900, 20, rng), p);
  }
}

}  // namespace
}  // namespace dcl
