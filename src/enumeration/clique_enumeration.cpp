#include "enumeration/clique_enumeration.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "common/intersect.h"
#include "graph/orientation.h"

namespace dcl {

// ---------------------------------------------------------------------------
// CliqueSet — open-addressing flat table over packed keys.
// ---------------------------------------------------------------------------

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

CliqueSet::PackedKey CliqueSet::pack(std::span<const NodeId> clique) {
  PackedKey key;
  key.fill(kUnused);
  std::copy(clique.begin(), clique.end(), key.begin());
  // Insertion sort: the keys are at most 8 wide, and report order is
  // usually already sorted or nearly so.
  for (std::size_t i = 1; i < clique.size(); ++i) {
    const NodeId x = key[i];
    std::size_t j = i;
    for (; j > 0 && key[j - 1] > x; --j) key[j] = key[j - 1];
    key[j] = x;
  }
  return key;
}

std::uint64_t CliqueSet::hash_key(const PackedKey& key) {
  static_assert(sizeof(PackedKey) == 4 * sizeof(std::uint64_t));
  const auto lanes = std::bit_cast<std::array<std::uint64_t, 4>>(key);
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const std::uint64_t lane : lanes) h = splitmix64(h ^ lane);
  return h;
}

void CliqueSet::place_robin_hood(std::vector<PackedKey>& slots,
                                 PackedKey key) {
  const std::size_t mask = slots.size() - 1;
  std::size_t i = static_cast<std::size_t>(hash_key(key)) & mask;
  std::size_t dist = 0;
  while (slots[i][0] != kUnused) {
    const std::size_t their =
        (i - (static_cast<std::size_t>(hash_key(slots[i])) & mask)) & mask;
    if (their < dist) {
      std::swap(slots[i], key);
      dist = their;
    }
    i = (i + 1) & mask;
    ++dist;
  }
  slots[i] = key;
}

bool CliqueSet::insert_packed(const PackedKey& key) {
  if (slots_.empty()) {
    PackedKey empty;
    empty.fill(kUnused);
    slots_.assign(32, empty);
  } else if ((packed_count_ + 1) * 10 > slots_.size() * 7) {
    grow();
  }
  // Robin-hood probe: along a probe chain residents appear in
  // non-decreasing ideal-slot order, so an equal key — same ideal slot —
  // must occur before the first resident strictly closer to its own ideal
  // than we are to ours; the duplicate scan is complete the moment a steal
  // happens, and from there the displaced residents just carry forward.
  // Displacement stays bounded regardless of insert order — the
  // hash-ordered-insert trap (slot-order bulk merges into a growing
  // table, measured 60x over pre-reserved) is killed at the root instead
  // of per call site.
  const std::size_t mask = slots_.size() - 1;
  PackedKey cur = key;
  std::size_t i = static_cast<std::size_t>(hash_key(cur)) & mask;
  std::size_t dist = 0;
  bool scanning = true;  // `cur` is still the probe key, not a displacee
  while (slots_[i][0] != kUnused) {
    if (scanning && slots_[i] == cur) return false;
    const std::size_t their =
        (i - (static_cast<std::size_t>(hash_key(slots_[i])) & mask)) & mask;
    if (their < dist) {
      std::swap(slots_[i], cur);
      dist = their;
      scanning = false;
    }
    i = (i + 1) & mask;
    ++dist;
  }
  slots_[i] = cur;
  ++packed_count_;
  fingerprint_ += hash_key(key);
  return true;
}

bool CliqueSet::erase_packed(const PackedKey& key) {
  if (slots_.empty()) return false;
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = static_cast<std::size_t>(hash_key(key)) & mask;
  while (slots_[i] != key) {
    if (slots_[i][0] == kUnused) return false;
    i = (i + 1) & mask;
  }
  --packed_count_;
  fingerprint_ -= hash_key(key);
  // Backward-shift deletion: close the probe chain by pulling every
  // displaced follower into the vacated slot; no tombstones, so probe
  // lengths stay a function of load alone even under heavy churn.
  std::size_t hole = i;
  std::size_t j = i;
  while (true) {
    j = (j + 1) & mask;
    if (slots_[j][0] == kUnused) break;
    const std::size_t ideal = static_cast<std::size_t>(hash_key(slots_[j])) & mask;
    // slots_[j] may move into the hole iff the hole lies on its probe
    // path, i.e. the cyclic distance ideal→hole does not exceed ideal→j.
    if (((j - ideal) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole].fill(kUnused);
  return true;
}

bool CliqueSet::contains_packed(const PackedKey& key) const {
  if (slots_.empty()) return false;
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = static_cast<std::size_t>(hash_key(key)) & mask;
  while (slots_[i][0] != kUnused) {
    if (slots_[i] == key) return true;
    i = (i + 1) & mask;
  }
  return false;
}

void CliqueSet::rehash(std::size_t new_slots) {
  std::vector<PackedKey> old = std::move(slots_);
  PackedKey empty;
  empty.fill(kUnused);
  slots_.assign(new_slots, empty);
  // Rehash feeds keys in old-slot (≈ hash) order — exactly the adversarial
  // order for plain linear probing; robin-hood placement keeps the rebuilt
  // table displacement-bounded too.
  for (const PackedKey& key : old) {
    if (key[0] == kUnused) continue;
    place_robin_hood(slots_, key);
  }
}

std::size_t CliqueSet::max_displacement() const {
  if (slots_.empty()) return 0;
  const std::size_t mask = slots_.size() - 1;
  std::size_t worst = 0;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i][0] == kUnused) continue;
    const std::size_t ideal =
        static_cast<std::size_t>(hash_key(slots_[i])) & mask;
    worst = std::max(worst, (i - ideal) & mask);
  }
  return worst;
}

void CliqueSet::grow() {
  // Quadruple small tables so the climb to a large set pays half the
  // rehash passes (each pass rewrites every key — the ~14% grow() churn
  // of the PR 3 profile); double once a step is big enough that the 4x
  // memory overshoot would dominate.
  constexpr std::size_t kQuadrupleBelow = std::size_t{1} << 16;
  rehash(slots_.size() < kQuadrupleBelow ? slots_.size() * 4
                                         : slots_.size() * 2);
}

void CliqueSet::reserve(std::size_t expected) {
  std::size_t target = 32;
  // Smallest power of two keeping `expected` keys at or under 0.7 load.
  while (target * 7 < expected * 10) target *= 2;
  if (target > slots_.size()) rehash(target);
}

std::uint64_t CliqueSet::member_hash(std::span<const NodeId> sorted) {
  if (sorted.empty() || sorted.size() > kPackedMax) {
    return overflow_hash(Clique(sorted.begin(), sorted.end()));
  }
  PackedKey key;
  key.fill(kUnused);
  std::copy(sorted.begin(), sorted.end(), key.begin());
  return hash_key(key);
}

std::uint64_t CliqueSet::overflow_hash(const Clique& sorted) {
  std::uint64_t h = 0x2545f4914f6cdd1dULL;
  for (const NodeId v : sorted) {
    h = splitmix64(h ^ static_cast<std::uint64_t>(static_cast<std::uint32_t>(v)));
  }
  return h;
}

bool CliqueSet::insert(std::span<const NodeId> clique) {
  if (clique.empty() || clique.size() > kPackedMax) {
    Clique c(clique.begin(), clique.end());
    std::sort(c.begin(), c.end());
    const std::uint64_t h = overflow_hash(c);
    const bool fresh = overflow_.insert(std::move(c)).second;
    if (fresh) fingerprint_ += h;
    return fresh;
  }
  return insert_packed(pack(clique));
}

bool CliqueSet::insert(const Clique& clique) {
  return insert(std::span<const NodeId>(clique));
}

bool CliqueSet::erase(std::span<const NodeId> clique) {
  if (clique.empty() || clique.size() > kPackedMax) {
    Clique c(clique.begin(), clique.end());
    std::sort(c.begin(), c.end());
    const bool present = overflow_.erase(c) > 0;
    if (present) fingerprint_ -= overflow_hash(c);
    return present;
  }
  return erase_packed(pack(clique));
}

bool CliqueSet::erase(const Clique& clique) {
  return erase(std::span<const NodeId>(clique));
}

bool CliqueSet::contains(std::span<const NodeId> clique) const {
  if (clique.empty() || clique.size() > kPackedMax) {
    Clique c(clique.begin(), clique.end());
    std::sort(c.begin(), c.end());
    return overflow_.contains(c);
  }
  return contains_packed(pack(clique));
}

bool CliqueSet::contains(const Clique& clique) const {
  return contains(std::span<const NodeId>(clique));
}

template <typename F>
void CliqueSet::for_each(F&& fn) const {
  Clique scratch;
  for (const PackedKey& key : slots_) {
    if (key[0] == kUnused) continue;
    scratch.clear();
    for (const NodeId v : key) {
      if (v == kUnused) break;
      scratch.push_back(v);
    }
    fn(scratch);
  }
  for (const Clique& c : overflow_) fn(c);
}

std::vector<Clique> CliqueSet::difference(const CliqueSet& other) const {
  std::vector<Clique> out;
  for_each([&](const Clique& c) {
    if (!other.contains(std::span<const NodeId>(c))) out.push_back(c);
  });
  return out;
}

bool CliqueSet::operator==(const CliqueSet& other) const {
  if (size() != other.size()) return false;
  bool equal = true;
  for_each([&](const Clique& c) {
    equal = equal && other.contains(std::span<const NodeId>(c));
  });
  return equal;
}

std::vector<Clique> CliqueSet::to_vector() const {
  std::vector<Clique> out;
  out.reserve(size());
  for_each([&](const Clique& c) { out.push_back(c); });
  return out;
}

// ---------------------------------------------------------------------------
// Degeneracy-DAG enumeration.
// ---------------------------------------------------------------------------

namespace {

/// Per-depth scratch buffers for the candidate sets: depth d of the
/// recursion owns `scratch[d]`, so one allocation per depth serves the
/// whole enumeration instead of a fresh vector per candidate.
using Scratch = std::vector<std::vector<NodeId>>;

/// Per-node recursion level marks. The candidate set at level l is exactly
/// {w : label[w] == l}, so "candidates ∩ dag_out[u]" is a scan of
/// dag_out[u] with one indexed compare per element — no sorted merge, no
/// branches that depend on the interleaving of two lists. This is the
/// candidate-propagation scheme of sequential k-clique engines (kClist /
/// DIST); the sorted-merge kernels of common/intersect.h remain the tool
/// for call sites that have no label context. One byte per node: the
/// recursion depth is ≤ p, and the gathers dominate the kernel, so the
/// smaller footprint matters more than the width.
using Labels = std::vector<std::uint8_t>;

/// The label-scan loops gather label[w] for every w in a CSR segment;
/// prefetching the next candidate's segment hides the adjacency load
/// behind the current scan.
inline void prefetch(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p);
#else
  (void)p;
#endif
}

/// The degeneracy DAG in flat CSR form: out-neighbors (strictly later in
/// the degeneracy order, sorted by id) in one contiguous array — one
/// allocation and sequential scans instead of a vector per node. Every
/// clique has exactly one representation as a path in this DAG starting
/// from its earliest-ordered vertex.
struct DegeneracyDag {
  std::vector<std::size_t> offsets;  ///< size n+1
  std::vector<NodeId> adj;           ///< size m

  std::span<const NodeId> out(NodeId v) const {
    return {adj.data() + offsets[static_cast<std::size_t>(v)],
            adj.data() + offsets[static_cast<std::size_t>(v) + 1]};
  }
};

DegeneracyDag degeneracy_dag(const Graph& g) {
  const auto dec = degeneracy_order(g);
  const auto n = static_cast<std::size_t>(g.node_count());
  std::vector<NodeId> rank(n);
  for (std::size_t i = 0; i < dec.order.size(); ++i) {
    rank[static_cast<std::size_t>(dec.order[i])] = static_cast<NodeId>(i);
  }
  DegeneracyDag dag;
  dag.offsets.assign(n + 1, 0);
  // Two branchless passes over the (sorted) CSR adjacency: count, then
  // compact the rank-ascending neighbors of each segment. Sequential reads
  // plus one rank gather per visit — and because neighbor lists are id-
  // sorted, every segment comes out in ascending head order.
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const auto rv = rank[static_cast<std::size_t>(v)];
    std::size_t c = 0;
    for (const NodeId w : g.neighbors(v)) {
      c += static_cast<std::size_t>(rank[static_cast<std::size_t>(w)] > rv);
    }
    dag.offsets[static_cast<std::size_t>(v) + 1] = c;
  }
  for (std::size_t v = 0; v < n; ++v) dag.offsets[v + 1] += dag.offsets[v];
  // One pad slot: the compacting write below touches position c even for a
  // skipped neighbor, and for the last node that can be one past its
  // segment (strays inside earlier segments are overwritten by the next
  // node's fill; the counts guarantee every kept slot is written last).
  dag.adj.resize(static_cast<std::size_t>(g.edge_count()) + 1);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const auto rv = rank[static_cast<std::size_t>(v)];
    std::size_t c = dag.offsets[static_cast<std::size_t>(v)];
    for (const NodeId w : g.neighbors(v)) {
      dag.adj[c] = w;
      c += static_cast<std::size_t>(rank[static_cast<std::size_t>(w)] > rv);
    }
  }
  dag.adj.resize(static_cast<std::size_t>(g.edge_count()));
  return dag;
}

/// Label-scan kernel over the degeneracy DAG for p ≤ 3 (`remaining` ∈
/// {1, 2}): at these depths the merged last levels are optimal as plain
/// label-compare scans, and the trimming machinery below would only add
/// partition writes. `emit` receives each completed clique.
// dcl-hot
template <typename Emit>
void extend_clique(const DegeneracyDag& dag, std::vector<NodeId>& prefix,
                   std::span<const NodeId> candidates, int level,
                   int remaining, Labels& label, Emit&& emit) {
  // Prune: not enough candidates left to complete the clique.
  if (static_cast<int>(candidates.size()) < remaining) return;
  if (remaining == 1) {
    // dcl-lint: allow(sem-hot-alloc): prefix is caller-reserved to depth p
    prefix.push_back(candidates.front());
    for (const NodeId u : candidates) {
      prefix.back() = u;
      emit(prefix);
    }
    prefix.pop_back();
    return;
  }
  // remaining == 2 (p == 3): the last two levels merged — completing pairs
  // are emitted straight from the label scan, with no candidate
  // materialization.
  const std::size_t base = prefix.size();
  // dcl-lint: allow(sem-hot-alloc): prefix is caller-reserved to depth p
  prefix.resize(base + 2);
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (i + 1 < candidates.size()) {
      prefetch(dag.adj.data() +
               dag.offsets[static_cast<std::size_t>(candidates[i + 1])]);
    }
    prefix[base] = candidates[i];
    for (const NodeId w : dag.out(candidates[i])) {
      if (label[static_cast<std::size_t>(w)] == level) {
        prefix[base + 1] = w;
        emit(prefix);
      }
    }
  }
  // dcl-lint: allow(sem-hot-alloc): shrink back to entry size, no growth
  prefix.resize(base);
}

/// Counting twin of `extend_clique` (p ≤ 3): the innermost levels collapse
/// to label-compare counts, so nothing is materialized where the work is.
// dcl-hot
std::uint64_t count_extend(const DegeneracyDag& dag,
                           std::span<const NodeId> candidates, int level,
                           int remaining, Labels& label) {
  if (static_cast<int>(candidates.size()) < remaining) return 0;
  if (remaining == 1) return candidates.size();
  // remaining == 2 (p == 3).
  std::uint64_t count = 0;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (i + 1 < candidates.size()) {
      prefetch(dag.adj.data() +
               dag.offsets[static_cast<std::size_t>(candidates[i + 1])]);
    }
    for (const NodeId w : dag.out(candidates[i])) {
      count += static_cast<std::uint64_t>(
          label[static_cast<std::size_t>(w)] == level);
    }
  }
  return count;
}

// ---------------------------------------------------------------------------
// kClist-style trimmed sub-DAG kernel (p ≥ 4).
// ---------------------------------------------------------------------------

/// Mutable view of the degeneracy DAG for the trimming kernel: at recursion
/// level l, the first `deg[x]` entries of x's CSR segment are exactly the
/// out-neighbors of x that survive at that level. Descending one level
/// partitions each surviving candidate's prefix in place (swap survivors to
/// the front) and shrinks `deg`; returning restores `deg` from the
/// per-level scratch — the permutation itself never needs undoing, because
/// every deeper survivor set is a subset of the prefix it was carved from.
/// Consequences: the next candidate set is a free span (no filtered copy),
/// inner scans touch induced degrees instead of full degrees, and the last
/// level is a plain degree sum with no scan at all.
struct TrimDag {
  const DegeneracyDag* dag;
  std::vector<NodeId> adj;  ///< per-segment-prefix permutation of dag->adj
  std::vector<NodeId> deg;  ///< current trimmed out-degree per node

  explicit TrimDag(const DegeneracyDag& d) : dag(&d), adj(d.adj) {
    const std::size_t n = d.offsets.size() - 1;
    deg.resize(n);
    for (std::size_t v = 0; v < n; ++v) {
      deg[v] = to_node(d.offsets[v + 1] - d.offsets[v]);
    }
  }
  std::span<const NodeId> out(NodeId v) const {
    return {adj.data() + dag->offsets[static_cast<std::size_t>(v)],
            static_cast<std::size_t>(deg[static_cast<std::size_t>(v)])};
  }
};

/// Trims the segment prefix of every x in `cands` (all labeled `mark`) down
/// to the neighbors also labeled `mark`, recording the previous degrees in
/// `saved` for restore.
// dcl-hot
void trim_prefixes(TrimDag& sub, std::span<const NodeId> cands,
                   const Labels& label, std::uint8_t mark,
                   std::vector<NodeId>& saved) {
  saved.clear();
  saved.reserve(cands.size());  // exactly one entry per candidate
  for (std::size_t i = 0; i < cands.size(); ++i) {
    const NodeId x = cands[i];
    if (i + 1 < cands.size()) {
      prefetch(sub.adj.data() +
               sub.dag->offsets[static_cast<std::size_t>(cands[i + 1])]);
    }
    const NodeId d0 = sub.deg[static_cast<std::size_t>(x)];
    saved.push_back(d0);
    NodeId* seg = sub.adj.data() + sub.dag->offsets[static_cast<std::size_t>(x)];
    NodeId k = 0;
    for (NodeId j = 0; j < d0; ++j) {
      // Branchless conditional swap: the survive test flips a
      // data-dependent fraction of the time, so a branch here mispredicts
      // its way through the hottest loop of the kernel.
      const NodeId w = seg[j];
      const NodeId a = seg[k];
      const bool take = label[static_cast<std::size_t>(w)] == mark;
      seg[j] = take ? a : w;
      seg[k] = take ? w : a;
      k += static_cast<NodeId>(take);
    }
    sub.deg[static_cast<std::size_t>(x)] = k;
  }
}

/// Counting recursion over the trimmed sub-DAG. Entry invariant: every
/// candidate is labeled `level` and trimmed to the candidate set (the
/// parent — or the root loop — ran `trim_prefixes`). `remaining` ≥ 2.
std::uint64_t count_trim(TrimDag& sub, std::span<const NodeId> cands,
                         std::uint8_t level, int remaining, Labels& label,
                         Scratch& scratch) {
  if (static_cast<int>(cands.size()) < remaining) return 0;
  if (remaining == 2) {
    // The prefix invariant makes the two last levels a pure degree sum:
    // deg[x] counts exactly the completing pairs (x, w) within `cands`.
    std::uint64_t count = 0;
    for (const NodeId x : cands) {
      count += static_cast<std::uint64_t>(sub.deg[static_cast<std::size_t>(x)]);
    }
    return count;
  }
  std::uint64_t count = 0;
  std::vector<NodeId>& saved = scratch[static_cast<std::size_t>(level)];
  for (const NodeId u : cands) {
    const auto next = sub.out(u);  // already trimmed to `cands` — free
    if (static_cast<int>(next.size()) < remaining - 1) continue;
    for (const NodeId x : next) {
      label[static_cast<std::size_t>(x)] = static_cast<std::uint8_t>(level + 1);
    }
    trim_prefixes(sub, next, label, static_cast<std::uint8_t>(level + 1), saved);
    count += count_trim(sub, next, static_cast<std::uint8_t>(level + 1),
                        remaining - 1, label, scratch);
    for (std::size_t i = 0; i < next.size(); ++i) {
      label[static_cast<std::size_t>(next[i])] = level;
      sub.deg[static_cast<std::size_t>(next[i])] = saved[i];
    }
  }
  return count;
}

/// Listing twin of `count_trim`: same trimming, but the last level emits
/// the completed cliques straight from the trimmed prefixes.
template <typename Emit>
void extend_trim(TrimDag& sub, std::vector<NodeId>& prefix,
                 std::span<const NodeId> cands, std::uint8_t level,
                 int remaining, Labels& label, Scratch& scratch,
                 Emit&& emit) {
  if (static_cast<int>(cands.size()) < remaining) return;
  if (remaining == 2) {
    const std::size_t base = prefix.size();
    prefix.resize(base + 2);
    for (std::size_t i = 0; i < cands.size(); ++i) {
      if (i + 1 < cands.size()) {
        prefetch(sub.adj.data() +
                 sub.dag->offsets[static_cast<std::size_t>(cands[i + 1])]);
      }
      prefix[base] = cands[i];
      for (const NodeId w : sub.out(cands[i])) {
        prefix[base + 1] = w;
        emit(prefix);
      }
    }
    prefix.resize(base);
    return;
  }
  std::vector<NodeId>& saved = scratch[static_cast<std::size_t>(level)];
  for (const NodeId u : cands) {
    const auto next = sub.out(u);
    if (static_cast<int>(next.size()) < remaining - 1) continue;
    for (const NodeId x : next) {
      label[static_cast<std::size_t>(x)] = static_cast<std::uint8_t>(level + 1);
    }
    trim_prefixes(sub, next, label, static_cast<std::uint8_t>(level + 1), saved);
    prefix.push_back(u);
    extend_trim(sub, prefix, next, static_cast<std::uint8_t>(level + 1),
                remaining - 1, label, scratch, emit);
    prefix.pop_back();
    for (std::size_t i = 0; i < next.size(); ++i) {
      label[static_cast<std::size_t>(next[i])] = level;
      sub.deg[static_cast<std::size_t>(next[i])] = saved[i];
    }
  }
}

template <typename Emit>
void for_each_k_clique(const Graph& g, int p, Emit&& emit) {
  if (p < 1) throw std::invalid_argument("k-clique enumeration: p < 1");
  if (p == 1) {
    std::vector<NodeId> single(1);
    for (NodeId v = 0; v < g.node_count(); ++v) {
      single[0] = v;
      emit(single);
    }
    return;
  }
  const DegeneracyDag dag = degeneracy_dag(g);
  Scratch scratch(static_cast<std::size_t>(p));
  Labels label(static_cast<std::size_t>(g.node_count()), 0);
  std::vector<NodeId> prefix;
  prefix.reserve(static_cast<std::size_t>(p));
  if (p >= 4) {
    TrimDag sub(dag);
    std::vector<NodeId>& saved = scratch[0];
    for (NodeId v = 0; v < g.node_count(); ++v) {
      const auto cands = dag.out(v);
      if (static_cast<int>(cands.size()) < p - 1) continue;
      for (const NodeId w : cands) label[static_cast<std::size_t>(w)] = 1;
      trim_prefixes(sub, cands, label, 1, saved);
      prefix.assign(1, v);
      extend_trim(sub, prefix, cands, 1, p - 1, label, scratch, emit);
      for (std::size_t i = 0; i < cands.size(); ++i) {
        label[static_cast<std::size_t>(cands[i])] = 0;
        sub.deg[static_cast<std::size_t>(cands[i])] = saved[i];
      }
    }
    return;
  }
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const auto cands = dag.out(v);
    if (static_cast<int>(cands.size()) < p - 1) continue;
    for (const NodeId w : cands) label[static_cast<std::size_t>(w)] = 1;
    prefix.assign(1, v);
    extend_clique(dag, prefix, cands, 1, p - 1, label, emit);
    for (const NodeId w : cands) label[static_cast<std::size_t>(w)] = 0;
  }
}

}  // namespace

std::vector<NodeId> list_k_cliques_flat(const Graph& g, int p) {
  // The kernel appends p ids per clique to one flat buffer (amortized-
  // free), canonicalized in place afterwards.
  std::vector<NodeId> flat;
  for_each_k_clique(g, p, [&](const std::vector<NodeId>& clique) {
    flat.insert(flat.end(), clique.begin(), clique.end());
  });
  const auto width = static_cast<std::size_t>(p);
  for (std::size_t at = 0; at < flat.size(); at += width) {
    sort_clique_ids(flat.data() + at, width);
  }
  return flat;
}

std::vector<Clique> list_k_cliques(const Graph& g, int p) {
  const std::vector<NodeId> flat = list_k_cliques_flat(g, p);
  const auto width = static_cast<std::size_t>(p);
  std::vector<Clique> result;
  result.reserve(flat.size() / width);
  for (auto it = flat.begin(); it != flat.end();
       it += static_cast<std::ptrdiff_t>(width)) {
    result.emplace_back(it, it + static_cast<std::ptrdiff_t>(width));
  }
  return result;
}

std::uint64_t count_k_cliques(const Graph& g, int p) {
  if (p < 1) throw std::invalid_argument("k-clique enumeration: p < 1");
  if (p == 1) return static_cast<std::uint64_t>(g.node_count());
  const DegeneracyDag dag = degeneracy_dag(g);
  Scratch scratch(static_cast<std::size_t>(p));
  Labels label(static_cast<std::size_t>(g.node_count()), 0);
  std::uint64_t count = 0;
  if (p >= 4) {
    TrimDag sub(dag);
    std::vector<NodeId>& saved = scratch[0];
    for (NodeId v = 0; v < g.node_count(); ++v) {
      const auto cands = dag.out(v);
      if (static_cast<int>(cands.size()) < p - 1) continue;
      for (const NodeId w : cands) label[static_cast<std::size_t>(w)] = 1;
      trim_prefixes(sub, cands, label, 1, saved);
      count += count_trim(sub, cands, 1, p - 1, label, scratch);
      for (std::size_t i = 0; i < cands.size(); ++i) {
        label[static_cast<std::size_t>(cands[i])] = 0;
        sub.deg[static_cast<std::size_t>(cands[i])] = saved[i];
      }
    }
    return count;
  }
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const auto cands = dag.out(v);
    if (static_cast<int>(cands.size()) < p - 1) continue;
    for (const NodeId w : cands) label[static_cast<std::size_t>(w)] = 1;
    count += count_extend(dag, cands, 1, p - 1, label);
    for (const NodeId w : cands) label[static_cast<std::size_t>(w)] = 0;
  }
  return count;
}

std::uint64_t count_k_cliques_naive(const Graph& g, int p) {
  if (p < 1) throw std::invalid_argument("k-clique counting: p < 1");
  if (p == 1) return static_cast<std::uint64_t>(g.node_count());
  // Recursion over id-increasing neighbor chains; independent of the
  // degeneracy machinery above. `depth` = number of vertices chosen so far.
  std::uint64_t count = 0;
  Scratch scratch(static_cast<std::size_t>(p));
  auto recurse = [&](auto&& self, std::span<const NodeId> cands,
                     int depth) -> void {
    if (depth == p) {
      ++count;
      return;
    }
    std::vector<NodeId>& next = scratch[static_cast<std::size_t>(depth)];
    for (std::size_t i = 0; i < cands.size(); ++i) {
      const NodeId u = cands[i];
      intersect_into(cands.subspan(i + 1),
                     g.neighbors(u), next);
      self(self, next, depth + 1);
    }
  };
  std::vector<NodeId> cands;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    cands.clear();
    for (NodeId w : g.neighbors(v)) {
      if (w > v) cands.push_back(w);
    }
    recurse(recurse, cands, 1);
  }
  return count;
}

bool is_clique(const Graph& g, std::span<const NodeId> nodes) {
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      if (nodes[i] == nodes[j]) return false;
      if (!g.has_edge(nodes[i], nodes[j])) return false;
    }
  }
  return true;
}

namespace {

void bron_kerbosch(const Graph& g, std::vector<NodeId>& r,
                   std::vector<NodeId> p_set, std::vector<NodeId> x_set,
                   std::vector<Clique>& out) {
  if (p_set.empty()) {
    if (x_set.empty()) out.push_back(r);
    return;  // nothing to branch on either way
  }
  // Pivot: vertex of P ∪ X with the most neighbors in P.
  NodeId pivot = -1;
  std::size_t best = 0;
  for (const auto* side : {&p_set, &x_set}) {
    for (NodeId u : *side) {
      const std::size_t cnt = intersect_count(p_set, g.neighbors(u));
      if (pivot == -1 || cnt > best) {
        pivot = u;
        best = cnt;
      }
    }
  }
  const auto pivot_nbrs = g.neighbors(pivot);
  std::vector<NodeId> branch;
  for (NodeId v : p_set) {
    if (!sorted_contains(pivot_nbrs, v)) branch.push_back(v);
  }
  for (NodeId v : branch) {
    const auto v_nbrs = g.neighbors(v);
    std::vector<NodeId> p_next, x_next;
    intersect_into(p_set, v_nbrs, p_next);
    intersect_into(x_set, v_nbrs, x_next);
    r.push_back(v);
    bron_kerbosch(g, r, std::move(p_next), std::move(x_next), out);
    r.pop_back();
    p_set.erase(std::find(p_set.begin(), p_set.end(), v));
    x_set.insert(std::lower_bound(x_set.begin(), x_set.end(), v), v);
  }
}

}  // namespace

std::vector<Clique> maximal_cliques(const Graph& g) {
  std::vector<Clique> out;
  if (g.node_count() == 0) return out;
  std::vector<NodeId> p_set(static_cast<std::size_t>(g.node_count()));
  for (NodeId v = 0; v < g.node_count(); ++v) {
    p_set[static_cast<std::size_t>(v)] = v;
  }
  std::vector<NodeId> r;
  bron_kerbosch(g, r, std::move(p_set), {}, out);
  for (auto& c : out) std::sort(c.begin(), c.end());
  return out;
}

int clique_number(const Graph& g) {
  int best = 0;
  for (const auto& c : maximal_cliques(g)) {
    best = std::max(best, static_cast<int>(c.size()));
  }
  return best;
}

}  // namespace dcl
