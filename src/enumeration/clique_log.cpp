#include "enumeration/clique_log.h"

#include <algorithm>
#include <bit>
#include <cassert>
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

std::size_t CliqueRun::size() const {
  if (log_->exact()) return static_cast<std::size_t>(log_->owned_);
  const Sorted run = sorted();
  return run.narrow.size() + run.wide.size() + run.spill.size();
}

std::uint64_t CliqueRun::fingerprint() const {
  if (log_->exact()) return log_->owned_fingerprint_;
  log_->sort();
  return log_->narrow_.fingerprint + log_->wide_.fingerprint +
         log_->spill_.fingerprint();
}

CliqueRun::Sorted CliqueRun::sorted() const {
  log_->sort();
  return Sorted{log_->format_, log_->narrow_.keys, log_->wide_.keys,
                log_->spill_};
}

bool CliqueRun::contains(std::span<const NodeId> clique) const {
  const Sorted run = sorted();
  std::array<NodeId, CliqueSet::kPackedMax> ids;
  const std::size_t len = sorted_copy(clique, ids);
  if (len == 0) return run.spill.contains(clique);
  switch (run.format.lane(ids.data(), len)) {
    case CliqueKeyFormat::Lane::narrow:
      return std::binary_search(
          run.narrow.begin(), run.narrow.end(),
          run.format.pack<std::uint64_t>(ids.data(), len));
    case CliqueKeyFormat::Lane::wide:
      return std::binary_search(
          run.wide.begin(), run.wide.end(),
          run.format.pack<WideCliqueKey>(ids.data(), len));
    case CliqueKeyFormat::Lane::spill:
      break;
  }
  return run.spill.contains(std::span<const NodeId>(ids.data(), len));
}

Clique CliqueRun::front() const {
  const Sorted run = sorted();
  std::array<NodeId, CliqueSet::kPackedMax> ids;
  std::size_t len = 0;
  if (!run.narrow.empty()) {
    len = run.format.unpack(run.narrow.front(), ids.data());
  } else if (!run.wide.empty()) {
    len = run.format.unpack(run.wide.front(), ids.data());
  } else {
    Clique first;
    run.spill.for_each_span([&](std::span<const NodeId> c) {
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
  const Sorted here = sorted();
  const Sorted there = other.sorted();
  merge_lane(here.format, here.narrow, there.narrow, only_here, only_there);
  merge_lane(here.format, here.wide, there.wide, only_here, only_there);
  spill_difference(here.spill, there.spill, only_here);
  spill_difference(there.spill, here.spill, only_there);
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

void CliqueLog::append_owned(std::span<const NodeId> clique) {
  ++owned_;
  const std::size_t len = clique.size();
  if (len == 0 || len > CliqueSet::kPackedMax) {
    Clique sorted_ids(clique.begin(), clique.end());
    std::sort(sorted_ids.begin(), sorted_ids.end());
    owned_fingerprint_ += CliqueSet::member_hash(sorted_ids);
    spill_.insert(sorted_ids);
    return;
  }
  std::array<NodeId, CliqueSet::kPackedMax> ids;
  std::copy(clique.begin(), clique.end(), ids.begin());
  sort_clique_ids(ids.data(), len);
  owned_fingerprint_ +=
      CliqueSet::member_hash(std::span<const NodeId>(ids.data(), len));
  push_sorted(ids.data(), len);
}

void CliqueLog::append(const CliqueLog& other) {
  owned_ += other.owned_;
  owned_fingerprint_ += other.owned_fingerprint_;
  may_repeat_ = may_repeat_ || other.may_repeat_;
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

void CliqueLog::sort() const {
  if (sorted()) return;
  // An exact log holds no repeat, so the unique pass must drop nothing.
  [[maybe_unused]] const bool was_exact = exact();
  [[maybe_unused]] const std::size_t before = entries();
  settle(narrow_);
  settle(wide_);
  assert((!was_exact || entries() == before) &&
         "CliqueLog: an exact log held a repeated clique");
}

void CliqueLog::clear() {
  narrow_.clear();
  wide_.clear();
  spill_ = CliqueSet{};
  owned_ = 0;
  owned_fingerprint_ = 0;
  may_repeat_ = false;
}

}  // namespace dcl
