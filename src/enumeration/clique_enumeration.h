// Sequential (centralized) clique enumeration — the ground-truth oracle.
//
// Every distributed lister in this repository is validated against these
// routines: the union of all node outputs must equal the exact set of Kp
// instances. Two independent algorithms are provided so the oracle itself
// is cross-checkable:
//  * `list_k_cliques` — degeneracy-DAG recursive intersection
//    (Chiba–Nishizeki style, O(m · α^{p-2}) for arboricity α);
//  * `count_k_cliques_naive` — direct recursion on sorted adjacency,
//    no degeneracy machinery (slower; used in tests as a second opinion).
// Plus Bron–Kerbosch with pivoting for maximal cliques / clique number.
//
// The recursions run on the shared sorted-intersection kernels of
// common/intersect.h with per-depth scratch buffers — the hot path
// allocates nothing (see docs/PERFORMANCE.md).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <set>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace dcl {

/// A clique, stored as a strictly increasing vector of node ids — the
/// canonical form used for deduplication and set comparison.
using Clique = std::vector<NodeId>;

/// Sorts the `width` ids of one clique in place — the canonical form.
/// Sorting networks for the common widths (optimal compare-swap counts, no
/// data-dependent branches); insertion sort above that.
inline void sort_clique_ids(NodeId* c, std::size_t width) {
  const auto cas = [](NodeId& a, NodeId& b) {  // branchless compare-swap
    const NodeId lo = std::min(a, b);
    b = std::max(a, b);
    a = lo;
  };
  switch (width) {
    case 2:
      cas(c[0], c[1]);
      break;
    case 3:
      cas(c[0], c[2]); cas(c[0], c[1]); cas(c[1], c[2]);
      break;
    case 4:
      cas(c[0], c[2]); cas(c[1], c[3]); cas(c[0], c[1]); cas(c[2], c[3]);
      cas(c[1], c[2]);
      break;
    case 5:
      cas(c[0], c[3]); cas(c[1], c[4]); cas(c[0], c[2]); cas(c[1], c[3]);
      cas(c[0], c[1]); cas(c[2], c[4]); cas(c[1], c[2]); cas(c[3], c[4]);
      cas(c[2], c[3]);
      break;
    default:
      for (std::size_t i = 1; i < width; ++i) {
        const NodeId x = c[i];
        std::size_t j = i;
        for (; j > 0 && c[j - 1] > x; --j) c[j] = c[j - 1];
        c[j] = x;
      }
      break;
  }
}

/// Canonical set of cliques with value semantics and erase: the oracle's
/// comparison target for listing validation (and `DynamicLister::cliques()`,
/// its on-demand view of the live cliques), and the spill lane of the
/// clique log for cliques no packed key holds.
///
/// Cliques of up to `kPackedMax` vertices — every Kp the paper's algorithms
/// list (p ≤ 8) — live in an open-addressing flat table over fixed-width
/// packed keys (sorted ids, -1-padded, splitmix-mixed), so insert and erase
/// do no heap allocation. Larger cliques (e.g. maximal cliques of dense
/// graphs) spill to a node-based set.
class CliqueSet {
 public:
  /// Widest clique stored inline; chosen for the paper's p ≤ 8 regime
  /// (a packed key is 8 × 32-bit NodeId = one cache line half).
  static constexpr std::size_t kPackedMax = 8;

  CliqueSet() = default;
  explicit CliqueSet(const std::vector<Clique>& cliques) {
    for (const auto& c : cliques) insert(c);
  }

  /// Inserts a clique given in any vertex order; returns true if new.
  bool insert(const Clique& clique);
  /// Allocation-free insert for cliques of ≤ kPackedMax vertices (any
  /// order); falls back to the spill set above that width.
  bool insert(std::span<const NodeId> clique);
  /// Erases a clique (any vertex order); returns true if it was present.
  /// Packed erase is backward-shift deletion (no tombstones), so lookup
  /// probe lengths never degrade under churn.
  bool erase(const Clique& clique);
  bool erase(std::span<const NodeId> clique);
  bool contains(const Clique& clique) const;
  bool contains(std::span<const NodeId> clique) const;
  std::size_t size() const { return packed_count_ + overflow_.size(); }
  bool empty() const { return size() == 0; }

  /// Pre-sizes the packed table for `expected` cliques so the insert path
  /// performs no growth rehashes up to that size. Callers with a clique
  /// count (a seed enumeration) use this to kill the grow() churn.
  void reserve(std::size_t expected);

  /// Longest probe distance of any packed key from its ideal slot — the
  /// robin-hood balance diagnostic. Insert placement is displacement-
  /// bounded (robin hood: a probing key steals the slot of any resident
  /// closer to its own ideal), so this stays O(log n)-ish at the 0.7 load
  /// ceiling no matter the insert order; in particular hash-ordered bulk
  /// inserts (copying one set into another walks it in slot order) can no
  /// longer degenerate into the long probe chains plain linear probing
  /// builds (measured 60x on a growing table). O(slots) scan; tests assert
  /// the bound after adversarial insert orders.
  std::size_t max_displacement() const;

  /// Order-independent content hash: the wrapping sum of one mixed hash
  /// per member clique, maintained incrementally on insert/erase. Two sets
  /// with equal contents have equal fingerprints regardless of insertion
  /// history; the empty set is 0. Used as the ledger-style drift detector
  /// for the dynamic engine's benches and tests.
  std::uint64_t fingerprint() const { return fingerprint_; }

  /// One member's contribution to `fingerprint()`: the hash of the sorted
  /// clique `sorted`. Lets another container of cliques (the listing
  /// output's sorted run) or a running sum with no container at all
  /// (`DynamicLister`) report a fingerprint bit-identical to a CliqueSet
  /// holding the same cliques.
  static std::uint64_t member_hash(std::span<const NodeId> sorted);

  /// Visits every member clique as a sorted `std::span<const NodeId>`
  /// without materializing vectors. Packed cliques are visited in slot
  /// order, overflow cliques after in lexicographic order (the spill set
  /// is ordered precisely so this visitation order is deterministic —
  /// dcl_lint's unordered-iteration rule bans hash-order walks on any path
  /// that can reach fingerprints); the span is valid only for the duration
  /// of the call.
  template <typename F>
  void for_each_span(F&& fn) const {
    for (const PackedKey& key : slots_) {
      if (key[0] == kUnused) continue;
      std::size_t len = 1;
      while (len < kPackedMax && key[len] != kUnused) ++len;
      fn(std::span<const NodeId>(key.data(), len));
    }
    for (const Clique& c : overflow_) {
      fn(std::span<const NodeId>(c.data(), c.size()));
    }
  }

  /// Cliques present in `this` but not in `other`.
  std::vector<Clique> difference(const CliqueSet& other) const;

  bool operator==(const CliqueSet& other) const;

  std::vector<Clique> to_vector() const;

 private:
  /// Sorted node ids padded with kUnused; padding never collides with a
  /// real id, so key equality is exactly clique equality.
  using PackedKey = std::array<NodeId, kPackedMax>;
  static constexpr NodeId kUnused = -1;

  static PackedKey pack(std::span<const NodeId> clique);  // sorts inline
  static std::uint64_t hash_key(const PackedKey& key);
  /// Robin-hood placement of a key known to be absent (rehash + the tail
  /// of insert_packed): probes from the ideal slot, swapping with any
  /// resident that sits closer to its own ideal than the carried key does.
  static void place_robin_hood(std::vector<PackedKey>& slots, PackedKey key);

  bool insert_packed(const PackedKey& key);
  bool erase_packed(const PackedKey& key);
  bool contains_packed(const PackedKey& key) const;
  static std::uint64_t overflow_hash(const Clique& sorted);
  void rehash(std::size_t new_slots);
  void grow();
  template <typename F>
  void for_each(F&& fn) const;  // fn(const Clique&)

  std::vector<PackedKey> slots_;  ///< open addressing; key[0]==kUnused = free
  std::size_t packed_count_ = 0;
  std::uint64_t fingerprint_ = 0;
  /// Spill set for cliques wider than kPackedMax. Ordered (lexicographic
  /// over sorted member ids), NOT hashed: for_each/for_each_span walk it,
  /// and an unordered spill would leak implementation-defined hash order
  /// into every downstream visitation (found by dcl_lint's
  /// unordered-iteration rule). The spill path only carries >8-wide
  /// maximal cliques, so the O(log n) node-based set is not a hot path.
  std::set<Clique> overflow_;
};

/// All Kp instances of g as one flat buffer: clique i is the sorted ids
/// [i·p, (i+1)·p). p >= 1; p = 1 lists vertices, p = 2 lists edges. The
/// allocation-free form every lister reports from.
std::vector<NodeId> list_k_cliques_flat(const Graph& g, int p);

/// `list_k_cliques_flat` split into one sorted vertex vector per clique.
std::vector<Clique> list_k_cliques(const Graph& g, int p);

/// Number of Kp instances (no materialization).
std::uint64_t count_k_cliques(const Graph& g, int p);

/// Independent counting implementation used to cross-check the oracle.
std::uint64_t count_k_cliques_naive(const Graph& g, int p);

/// Whether `nodes` (any order, distinct) induce a complete subgraph.
bool is_clique(const Graph& g, std::span<const NodeId> nodes);

/// All maximal cliques via Bron–Kerbosch with pivoting.
std::vector<Clique> maximal_cliques(const Graph& g);

/// Clique number ω(G) (size of the largest clique).
int clique_number(const Graph& g);

}  // namespace dcl
