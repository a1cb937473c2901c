// Append-only clique log, deduplicated once — the output plane of the
// distributed listers (core/listing_types.h).
//
// The distributed guarantee is that the *union* of node outputs equals the
// set of Kp, so reports repeat: on a dense input most of them are
// duplicates. Instead of probing a hash table per report, the log packs
// each sorted clique into one integer key and appends it; the first read
// sorts the log with an LSD radix sort and drops the repeats, once. The
// result is a sorted run of unique keys — a plain array, read through the
// `CliqueRun` view. See docs/PERFORMANCE.md, "Output plane".
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

/// Read-only view of a log's sorted unique run: the narrow keys, then the
/// wide keys, then the spill set. Valid until the log is next appended to.
class CliqueRun {
 public:
  std::size_t size() const {
    return narrow_.size() + wide_.size() + spill_->size();
  }

  /// Bit-identical to CliqueSet::fingerprint() of the same cliques.
  std::uint64_t fingerprint() const { return fingerprint_; }

  /// Membership of a clique in any vertex order: a binary search.
  bool contains(std::span<const NodeId> clique) const;
  bool contains(const Clique& clique) const {
    return contains(std::span<const NodeId>(clique));
  }

  /// Visits every member as a sorted span, in run order; the span is valid
  /// only for the duration of the call.
  template <typename F>
  void for_each_span(F&& fn) const {
    std::array<NodeId, CliqueSet::kPackedMax> ids;
    for (const std::uint64_t key : narrow_) {
      fn(std::span<const NodeId>(ids.data(), format_.unpack(key, ids.data())));
    }
    for (const WideCliqueKey key : wide_) {
      fn(std::span<const NodeId>(ids.data(), format_.unpack(key, ids.data())));
    }
    spill_->for_each_span(fn);
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
  CliqueRun(const CliqueKeyFormat& format,
            std::span<const std::uint64_t> narrow,
            std::span<const WideCliqueKey> wide, const CliqueSet* spill,
            std::uint64_t fingerprint)
      : format_(format),
        narrow_(narrow),
        wide_(wide),
        spill_(spill),
        fingerprint_(fingerprint) {}

  CliqueKeyFormat format_;
  std::span<const std::uint64_t> narrow_;
  std::span<const WideCliqueKey> wide_;
  const CliqueSet* spill_;
  std::uint64_t fingerprint_;
};

/// Append-only log of cliques over ids in [0, n). Appends are a sort of at
/// most kPackedMax ids, a pack and a push_back; `run()` deduplicates.
class CliqueLog {
 public:
  explicit CliqueLog(NodeId n) : format_(n) {}

  /// Appends a clique given in any vertex order.
  void append(std::span<const NodeId> clique) {
    const std::size_t len = clique.size();
    if (len == 0 || len > CliqueSet::kPackedMax) {
      spill_.insert(clique);
      return;
    }
    std::array<NodeId, CliqueSet::kPackedMax> ids;
    std::copy(clique.begin(), clique.end(), ids.begin());
    sort_clique_ids(ids.data(), len);
    switch (format_.lane(ids.data(), len)) {
      case CliqueKeyFormat::Lane::narrow:
        narrow_.keys.push_back(format_.pack<std::uint64_t>(ids.data(), len));
        break;
      case CliqueKeyFormat::Lane::wide:
        wide_.keys.push_back(format_.pack<WideCliqueKey>(ids.data(), len));
        break;
      case CliqueKeyFormat::Lane::spill:
        spill_.insert(std::span<const NodeId>(ids.data(), len));
        break;
    }
  }

  /// Appends every entry of `other`, which must be a log over the same n.
  /// Concatenation: the merged run is the same in any merge order.
  void append(const CliqueLog& other);

  /// The sorted unique run. The first call after an append sorts the log
  /// (LSD radix sort, then unique) and refolds the fingerprint; later calls
  /// are O(1). Logically const, but not safe to call concurrently with
  /// itself while appends are pending.
  CliqueRun run() const;

  /// Empties the log and keeps its key capacity, so a log refilled per
  /// batch stops allocating once it has held the largest batch.
  void clear();

 private:
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

  CliqueKeyFormat format_;
  mutable Lane<std::uint64_t> narrow_;
  mutable Lane<WideCliqueKey> wide_;
  CliqueSet spill_;  ///< deduplicates on insert
};

}  // namespace dcl
