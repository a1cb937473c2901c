// Example: maintaining the K4 set of an evolving social graph.
//
// A "recent interactions" graph never sits still: each tick some
// interactions expire and new ones arrive. Re-listing cliques from
// scratch per tick pays the whole graph; the batch-dynamic engine
// (src/dynamic/) pays only for the cliques that actually changed — the
// ListingDelta per batch is the stream a downstream consumer (alerting,
// feature extraction) would subscribe to.
//
// Doubles as an end-to-end smoke test: exits non-zero if the maintained
// clique count or fingerprint disagrees with a from-scratch recompute.
#include <cstdio>

#include "common/rng.h"
#include "dynamic/dynamic_lister.h"
#include "graph/workloads.h"

int main() {
  using namespace dcl;
  constexpr int kP = 4;

  Rng rng(2024);
  const UpdateStream stream = sliding_window_stream(
      /*n=*/160, /*batches=*/10, /*batch_size=*/220, /*window=*/3, rng);

  DynamicLister lister(Graph::from_edges(stream.n, stream.initial), kP);
  std::printf("tracking K%d over a sliding window of recent interactions\n",
              kP);
  for (std::size_t tick = 0; tick < stream.batches.size(); ++tick) {
    const ListingDelta delta = lister.apply(stream.batches[tick]);
    const DynamicBatchStats& s = lister.last_stats();
    std::printf(
        "tick %zu: %+lld/-%lld edges -> %zu new cliques, %zu dissolved "
        "(%llu live, witness A=%d)\n",
        tick, static_cast<long long>(s.inserted_edges),
        static_cast<long long>(s.erased_edges), delta.added.size(),
        delta.removed.size(),
        static_cast<unsigned long long>(s.clique_count),
        s.arboricity_witness);
    if (!delta.added.empty()) {
      const Clique& c = delta.added.front();
      std::printf("  e.g. newly formed: {%d, %d, %d, %d}\n", c[0], c[1], c[2],
                  c[3]);
    }
  }

  // The correctness contract, checked the expensive way once at the end.
  CliqueSet expected;
  for (const auto& c : list_k_cliques(lister.graph().snapshot(), kP)) {
    expected.insert(c);
  }
  const bool ok = lister.clique_count() == expected.size() &&
                  lister.fingerprint() == expected.fingerprint();
  std::printf("final check vs from-scratch recompute: %s\n",
              ok ? "match" : "MISMATCH");
  return ok ? 0 : 1;
}
