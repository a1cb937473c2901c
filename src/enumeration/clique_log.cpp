#include "enumeration/clique_log.h"

#include <algorithm>
#include <bit>
#include <iterator>

namespace dcl {

namespace {

constexpr std::size_t kRadix = 256;

/// LSD radix sort over the key's bytes, then unique. One pass histograms
/// every byte; a byte that holds the same value in every key (the unused
/// high fields of a p-width key) costs no scatter pass.
template <typename Key>
void radix_sort_unique(std::vector<Key>& keys) {
  constexpr std::size_t kDigits = sizeof(Key);
  if (keys.size() > 1) {
    std::vector<std::size_t> count(kDigits * kRadix, 0);
    for (const Key key : keys) {
      for (std::size_t d = 0; d < kDigits; ++d) {
        ++count[d * kRadix + static_cast<std::size_t>((key >> (8 * d)) & 0xff)];
      }
    }
    std::vector<Key> buf(keys.size());
    for (std::size_t d = 0; d < kDigits; ++d) {
      std::size_t* c = count.data() + d * kRadix;
      const auto first = static_cast<std::size_t>((keys[0] >> (8 * d)) & 0xff);
      if (c[first] == keys.size()) continue;
      std::size_t at = 0;
      for (std::size_t b = 0; b < kRadix; ++b) {
        const std::size_t here = c[b];
        c[b] = at;
        at += here;
      }
      for (const Key key : keys) {
        buf[c[static_cast<std::size_t>((key >> (8 * d)) & 0xff)]++] = key;
      }
      keys.swap(buf);
    }
  }
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
}

/// Sorts `clique` into `ids`; returns the width, or 0 when the clique is
/// wider than a packed key can hold.
std::size_t sorted_copy(std::span<const NodeId> clique,
                        std::array<NodeId, CliqueSet::kPackedMax>& ids) {
  if (clique.empty() || clique.size() > CliqueSet::kPackedMax) return 0;
  std::copy(clique.begin(), clique.end(), ids.begin());
  sort_clique_ids(ids.data(), clique.size());
  return clique.size();
}

/// Merges two sorted unique key lanes, unpacking each key only one side
/// holds onto that side's output.
template <typename Key>
void merge_lane(const CliqueKeyFormat& format, std::span<const Key> a,
                std::span<const Key> b, std::vector<Clique>& only_a,
                std::vector<Clique>& only_b) {
  std::array<NodeId, CliqueSet::kPackedMax> ids;
  const auto emit = [&](Key key, std::vector<Clique>& out) {
    const std::size_t len = format.unpack(key, ids.data());
    out.emplace_back(ids.begin(),
                     ids.begin() + static_cast<std::ptrdiff_t>(len));
  };
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      emit(a[i++], only_a);
    } else if (b[j] < a[i]) {
      emit(b[j++], only_b);
    } else {
      ++i;
      ++j;
    }
  }
  for (; i < a.size(); ++i) emit(a[i], only_a);
  for (; j < b.size(); ++j) emit(b[j], only_b);
}

/// The spill lane is a hash set: its difference is sorted before it is
/// appended, so the output order does not depend on slot order.
void spill_difference(const CliqueSet& a, const CliqueSet& b,
                      std::vector<Clique>& only_a) {
  std::vector<Clique> only = a.difference(b);
  std::sort(only.begin(), only.end());
  only_a.insert(only_a.end(), std::make_move_iterator(only.begin()),
                std::make_move_iterator(only.end()));
}

}  // namespace

CliqueKeyFormat::CliqueKeyFormat(NodeId n_) : n(n_) {
  const auto ids = static_cast<std::uint32_t>(std::max(n_, NodeId{0}));
  bits = std::max(1, static_cast<int>(std::bit_width(ids)));
  narrow_max = std::min<std::size_t>(CliqueSet::kPackedMax,
                                     64 / static_cast<std::size_t>(bits));
  wide_max = std::min<std::size_t>(CliqueSet::kPackedMax,
                                   128 / static_cast<std::size_t>(bits));
}

bool CliqueRun::contains(std::span<const NodeId> clique) const {
  std::array<NodeId, CliqueSet::kPackedMax> ids;
  const std::size_t len = sorted_copy(clique, ids);
  if (len == 0) return spill_->contains(clique);
  switch (format_.lane(ids.data(), len)) {
    case CliqueKeyFormat::Lane::narrow:
      return std::binary_search(narrow_.begin(), narrow_.end(),
                                format_.pack<std::uint64_t>(ids.data(), len));
    case CliqueKeyFormat::Lane::wide:
      return std::binary_search(wide_.begin(), wide_.end(),
                                format_.pack<WideCliqueKey>(ids.data(), len));
    case CliqueKeyFormat::Lane::spill:
      break;
  }
  return spill_->contains(std::span<const NodeId>(ids.data(), len));
}

Clique CliqueRun::front() const {
  std::array<NodeId, CliqueSet::kPackedMax> ids;
  std::size_t len = 0;
  if (!narrow_.empty()) {
    len = format_.unpack(narrow_.front(), ids.data());
  } else if (!wide_.empty()) {
    len = format_.unpack(wide_.front(), ids.data());
  } else {
    Clique first;
    spill_->for_each_span([&](std::span<const NodeId> c) {
      if (first.empty()) first.assign(c.begin(), c.end());
    });
    return first;
  }
  return Clique(ids.begin(), ids.begin() + static_cast<std::ptrdiff_t>(len));
}

std::vector<Clique> CliqueRun::to_vector() const {
  std::vector<Clique> out;
  out.reserve(size());
  for_each_span(
      [&](std::span<const NodeId> c) { out.emplace_back(c.begin(), c.end()); });
  return out;
}

void CliqueRun::difference(const CliqueRun& other,
                           std::vector<Clique>& only_here,
                           std::vector<Clique>& only_there) const {
  merge_lane(format_, narrow_, other.narrow_, only_here, only_there);
  merge_lane(format_, wide_, other.wide_, only_here, only_there);
  spill_difference(*spill_, *other.spill_, only_here);
  spill_difference(*other.spill_, *spill_, only_there);
}

namespace {

template <typename Set>
bool same_members(const CliqueRun& run, const Set& other) {
  if (run.size() != other.size() || run.fingerprint() != other.fingerprint()) {
    return false;
  }
  bool equal = true;
  run.for_each_span(
      [&](std::span<const NodeId> c) { equal = equal && other.contains(c); });
  return equal;
}

}  // namespace

bool CliqueRun::operator==(const CliqueSet& other) const {
  return same_members(*this, other);
}

bool CliqueRun::operator==(const CliqueRun& other) const {
  return same_members(*this, other);
}

void CliqueLog::append(const CliqueLog& other) {
  narrow_.keys.insert(narrow_.keys.end(), other.narrow_.keys.begin(),
                      other.narrow_.keys.end());
  wide_.keys.insert(wide_.keys.end(), other.wide_.keys.begin(),
                    other.wide_.keys.end());
  other.spill_.for_each_span(
      [&](std::span<const NodeId> c) { spill_.insert(c); });
}

template <typename Key>
void CliqueLog::settle(Lane<Key>& lane) const {
  if (lane.sorted == lane.keys.size()) return;
  radix_sort_unique(lane.keys);
  lane.sorted = lane.keys.size();
  // The fingerprint folds CliqueSet's member hash, so it is bit-identical
  // to a CliqueSet fed the same reports.
  lane.fingerprint = 0;
  std::array<NodeId, CliqueSet::kPackedMax> ids;
  for (const Key key : lane.keys) {
    lane.fingerprint += CliqueSet::member_hash(
        std::span<const NodeId>(ids.data(), format_.unpack(key, ids.data())));
  }
}

void CliqueLog::clear() {
  narrow_.clear();
  wide_.clear();
  spill_ = CliqueSet{};
}

CliqueRun CliqueLog::run() const {
  settle(narrow_);
  settle(wide_);
  return CliqueRun(format_, narrow_.keys, wide_.keys, &spill_,
                   narrow_.fingerprint + wide_.fingerprint +
                       spill_.fingerprint());
}

}  // namespace dcl
