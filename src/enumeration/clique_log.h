// Append-only clique log — the output plane of the distributed listers
// (core/listing_types.h).
//
// The log packs each sorted clique into one integer key and appends it.
// Reports reach it on two paths:
//  * `append` may repeat a clique. The first ordered read sorts the log
//    with an LSD radix sort and drops the repeats, once.
//  * `append_owned` promises that no other entry of the log holds the
//    clique (the in-cluster lister gives every clique one owner). It also
//    adds the clique's `CliqueSet::member_hash` to a running sum.
// While every entry came in owned (`exact()`), the unique count is the
// append count and the fingerprint is the running sum, so neither needs
// the sort. Ordered reads (`contains`, `for_each_span`, `front`,
// `to_vector`, `difference`, `==`) still sort on first use. The result is
// a sorted run of unique keys — a plain array, read through the
// `CliqueRun` handle. See docs/PERFORMANCE.md, "Output plane".
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "enumeration/clique_enumeration.h"

namespace dcl {

/// 128-bit key for cliques whose fields do not fit 64 bits.
using WideCliqueKey = __uint128_t;

/// How a sorted clique maps to an integer key. Each id is stored as id+1 in
/// a `bits`-wide field, the first id in the most significant used field, so
/// 0 never occurs inside a clique and a K3 never equals a K4 that shares
/// its prefix. Keys of cliques of equal width order lexicographically.
struct CliqueKeyFormat {
  /// Which container a sorted clique belongs to.
  enum class Lane { narrow, wide, spill };

  /// Fixes the field width for ids in [0, n): bit_width(n) bits.
  explicit CliqueKeyFormat(NodeId n);

  NodeId n;
  int bits;
  std::size_t narrow_max;  ///< widest clique whose key fits 64 bits
  std::size_t wide_max;    ///< widest clique whose key fits 128 bits

  /// Cliques wider than CliqueSet::kPackedMax or than 128 bits, and any id
  /// outside [0, n), keep CliqueSet's spill path.
  Lane lane(const NodeId* sorted, std::size_t len) const {
    if (len == 0 || len > wide_max || sorted[0] < 0 || sorted[len - 1] >= n) {
      return Lane::spill;
    }
    return len <= narrow_max ? Lane::narrow : Lane::wide;
  }

  template <typename Key>
  Key pack(const NodeId* sorted, std::size_t len) const {
    Key key = 0;
    for (std::size_t i = 0; i < len; ++i) {
      key = (key << bits) | static_cast<Key>(sorted[i] + 1);
    }
    return key;
  }

  /// Writes the sorted ids of `key` to `out`; returns the clique width.
  template <typename Key>
  std::size_t unpack(Key key, NodeId* out) const {
    std::size_t len = 0;
    for (Key k = key; k != 0; k >>= bits) ++len;
    const Key mask = (Key{1} << bits) - 1;
    for (std::size_t i = len; i-- > 0; key >>= bits) {
      out[i] = static_cast<NodeId>(key & mask) - 1;
    }
    return len;
  }
};

class CliqueLog;

/// Read-only handle on a log's unique cliques: the narrow keys, then the
/// wide keys, then the spill set. `size` and `fingerprint` are O(1) on an
/// exact log; every other read sorts the log on first use. Reads see the
/// log as it is at the time of the read.
class CliqueRun {
 public:
  std::size_t size() const;

  /// Bit-identical to CliqueSet::fingerprint() of the same cliques.
  std::uint64_t fingerprint() const;

  /// Membership of a clique in any vertex order: a binary search.
  bool contains(std::span<const NodeId> clique) const;
  bool contains(const Clique& clique) const {
    return contains(std::span<const NodeId>(clique));
  }

  /// Visits every member as a sorted span, in run order; the span is valid
  /// only for the duration of the call.
  template <typename F>
  void for_each_span(F&& fn) const {
    const Sorted run = sorted();
    std::array<NodeId, CliqueSet::kPackedMax> ids;
    const auto visit = [&](auto key) {
      fn(std::span<const NodeId>(ids.data(),
                                 run.format.unpack(key, ids.data())));
    };
    for (const std::uint64_t key : run.narrow) visit(key);
    for (const WideCliqueKey key : run.wide) visit(key);
    run.spill.for_each_span(fn);
  }

  /// The first member in run order — the lexicographically smallest of the
  /// narrowest cliques. Requires size() > 0.
  Clique front() const;

  std::vector<Clique> to_vector() const;

  /// One linear merge of this run and `other`, both read from logs over the
  /// same n: appends the members only this run holds to `only_here` and the
  /// members only `other` holds to `only_there`. Cliques of one width come
  /// out in lexicographic order, the order std::sort gives them.
  void difference(const CliqueRun& other, std::vector<Clique>& only_here,
                  std::vector<Clique>& only_there) const;

  bool operator==(const CliqueSet& other) const;
  bool operator==(const CliqueRun& other) const;

 private:
  friend class CliqueLog;
  explicit CliqueRun(const CliqueLog& log) : log_(&log) {}

  /// The log's sorted unique lanes; sorts the log if an append is pending.
  struct Sorted {
    const CliqueKeyFormat& format;
    std::span<const std::uint64_t> narrow;
    std::span<const WideCliqueKey> wide;
    const CliqueSet& spill;
  };
  Sorted sorted() const;

  const CliqueLog* log_;
};

/// Append-only log of cliques over ids in [0, n). Appends are a sort of at
/// most kPackedMax ids, a pack and a push_back; the first ordered read of
/// `run()` deduplicates.
class CliqueLog {
 public:
  explicit CliqueLog(NodeId n) : format_(n) {}

  /// Appends a clique given in any vertex order. The clique may already be
  /// in the log; the log is then no longer exact.
  void append(std::span<const NodeId> clique) {
    const std::size_t len = clique.size();
    if (len == 0 || len > CliqueSet::kPackedMax) {
      spill_.insert(clique);
      return;
    }
    std::array<NodeId, CliqueSet::kPackedMax> ids;
    std::copy(clique.begin(), clique.end(), ids.begin());
    sort_clique_ids(ids.data(), len);
    push_sorted(ids.data(), len);
  }

  /// Appends a clique that no other entry of this log holds, and adds its
  /// member hash to the running fingerprint. A log whose entries all came
  /// in this way is exact.
  void append_owned(std::span<const NodeId> clique);

  /// Declares that owned appends may repeat a clique (two owners over
  /// different part tuples). The log stays inexact until `clear()`.
  void mark_may_repeat() { may_repeat_ = true; }

  /// Whether the log holds no repeated clique and every entry was owned:
  /// then the unique count and the fingerprint are O(1). A plain append
  /// makes the entry count exceed the owned count, so it needs no flag of
  /// its own.
  bool exact() const { return !may_repeat_ && owned_ == entries(); }

  /// Whether the next ordered read finds the run sorted (no pending
  /// append to sort).
  bool sorted() const {
    return narrow_.sorted == narrow_.keys.size() &&
           wide_.sorted == wide_.keys.size();
  }

  /// Appends every entry of `other`, which must be a log over the same n.
  /// Concatenation: the merged run is the same in any merge order. The
  /// owned counts and fingerprints add, so two exact logs of disjoint
  /// cliques merge into an exact log.
  void append(const CliqueLog& other);

  /// A handle on the unique cliques; O(1). The first ordered read after an
  /// append sorts the log (LSD radix sort, then unique) and refolds the
  /// fingerprint. Logically const, but not safe to read concurrently with
  /// itself while appends are pending.
  CliqueRun run() const { return CliqueRun(*this); }

  /// Empties the log and keeps its key capacity, so a log refilled per
  /// batch stops allocating once it has held the largest batch.
  void clear();

 private:
  friend class CliqueRun;

  void push_sorted(const NodeId* ids, std::size_t len) {
    switch (format_.lane(ids, len)) {
      case CliqueKeyFormat::Lane::narrow:
        narrow_.keys.push_back(format_.pack<std::uint64_t>(ids, len));
        break;
      case CliqueKeyFormat::Lane::wide:
        wide_.keys.push_back(format_.pack<WideCliqueKey>(ids, len));
        break;
      case CliqueKeyFormat::Lane::spill:
        spill_.insert(std::span<const NodeId>(ids, len));
        break;
    }
  }

  /// Entries held: keys appended since the last sort plus the sorted run.
  std::size_t entries() const {
    return narrow_.keys.size() + wide_.keys.size() + spill_.size();
  }

  template <typename Key>
  struct Lane {
    std::vector<Key> keys;
    std::size_t sorted = 0;        ///< keys[0, sorted) is sorted and unique
    std::uint64_t fingerprint = 0;  ///< of keys[0, sorted)

    void clear() {
      keys.clear();
      sorted = 0;
      fingerprint = 0;
    }
  };
  template <typename Key>
  void settle(Lane<Key>& lane) const;
  /// Sorts and deduplicates both key lanes.
  void sort() const;

  CliqueKeyFormat format_;
  mutable Lane<std::uint64_t> narrow_;
  mutable Lane<WideCliqueKey> wide_;
  CliqueSet spill_;  ///< deduplicates on insert
  std::uint64_t owned_ = 0;             ///< owned appends
  std::uint64_t owned_fingerprint_ = 0;  ///< Σ member_hash of owned appends
  bool may_repeat_ = false;
};

}  // namespace dcl
