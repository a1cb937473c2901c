// Flat partition-multiset tables for the CONGESTED-CLIQUE listers.
//
// Both the sparse-case clique lister (core/sparse_cc.cpp) and the
// in-cluster lister (core/in_cluster_listing.cpp) assign node i the sorted
// multiset of the p base-q digits of i mod q^p, then repeatedly ask
//   * does node i's multiset cover the part pair {a, b}?  and
//   * which node is the representative (minimum id) of each multiset?
// The cover test runs over the sorted digit lists via the shared
// intersection kernels; the representative map — previously a
// std::map<std::vector<int>, NodeId> with a tree walk and a vector compare
// per lookup — is replaced here by a sorted flat table: every multiset
// packs into one integer key (< q^p <= n), one sort of (key, id) pairs
// groups equal multisets into runs, and the run head (the minimum id, since
// ids ascend within a run) is the representative. Lookup is an O(1) array
// read (`rep[i]`).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/intersect.h"
#include "common/math_util.h"
#include "graph/graph.h"
#include "graph/ids.h"

namespace dcl {

/// The p base-q digits of id (mod q^p), as a sorted multiset.
inline std::vector<int> part_multiset(NodeId id, int q, int p) {
  const std::int64_t space = ipow(q, p);
  auto digits = radix_digits(static_cast<std::int64_t>(id) % space, q, p);
  std::sort(digits.begin(), digits.end());
  return digits;
}

/// Whether the sorted multiset `s` contains part `a` and part `b`
/// (with multiplicity two when a == b).
inline bool multiset_covers(const std::vector<int>& s, int a, int b) {
  if (a > b) std::swap(a, b);
  if (a == b) {
    const auto lo = std::lower_bound(s.begin(), s.end(), a);
    return lo != s.end() && *lo == a && (lo + 1) != s.end() && *(lo + 1) == a;
  }
  return sorted_contains(s, a) && sorted_contains(s, b);
}

/// Unordered part pair {a, b} -> dense index into a q*q table.
inline int pair_index(int a, int b, int q) {
  if (a > b) std::swap(a, b);
  return a * q + b;
}

/// rep[i] = minimum id whose multiset equals tuples[i]'s. Sorted flat
/// table: multisets pack into integer keys (digit-weighted base-q sums,
/// unique per multiset and < q^p), one sort groups equal keys into runs,
/// and each run's first id is its representative.
inline std::vector<NodeId> representative_table(
    const std::vector<std::vector<int>>& tuples, int q) {
  const auto k = tuples.size();
  std::vector<std::int64_t> key(k);
  for (std::size_t i = 0; i < k; ++i) {
    std::int64_t packed = 0;
    for (const int digit : tuples[i]) packed = packed * q + digit;
    key[i] = packed;
  }
  std::vector<NodeId> order(k);
  for (std::size_t i = 0; i < k; ++i) order[i] = static_cast<NodeId>(i);
  std::sort(order.begin(), order.end(), [&](NodeId x, NodeId y) {
    if (key[static_cast<std::size_t>(x)] != key[static_cast<std::size_t>(y)]) {
      return key[static_cast<std::size_t>(x)] < key[static_cast<std::size_t>(y)];
    }
    return x < y;
  });
  std::vector<NodeId> rep(k);
  NodeId head = -1;
  for (std::size_t i = 0; i < k; ++i) {
    if (i == 0 || key[static_cast<std::size_t>(order[i])] !=
                      key[static_cast<std::size_t>(order[i - 1])]) {
      head = order[i];
    }
    rep[static_cast<std::size_t>(order[i])] = head;
  }
  return rep;
}

/// The reduced part multisets that the sorted multiset `s` covers. A
/// clique's reduced multiset R caps each part's multiplicity at 2: a node
/// receives every edge of the clique exactly when its multiset covers R.
/// R ⊆ s is coded in mixed radix over s's distinct parts, code =
/// Σ r_i · weight[i] with r_i ≤ cap[i] = min(multiplicity in s, 2), so the
/// codes of one multiset fill [0, codes).
struct ReducedCover {
  std::vector<int> parts;              ///< distinct parts of s, ascending
  std::vector<int> cap;                ///< min(multiplicity, 2) per part
  std::vector<std::uint32_t> weight;   ///< radix weight per part
  std::uint32_t codes = 1;             ///< Π (cap[i] + 1) ≤ 3^p

  explicit ReducedCover(const std::vector<int>& s) {
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (i > 0 && s[i] == s[i - 1]) {
        cap.back() = 2;
        continue;
      }
      parts.push_back(s[i]);
      cap.push_back(1);
    }
    for (const int c : cap) {
      weight.push_back(codes);
      codes *= static_cast<std::uint32_t>(c + 1);
    }
  }

  /// The sorted parts of the reduced multiset with code `code`.
  std::vector<int> decode(std::uint32_t code) const {
    std::vector<int> r;
    for (std::size_t i = 0; i < parts.size(); ++i) {
      const auto radix = static_cast<std::uint32_t>(cap[i] + 1);
      r.insert(r.end(), code / weight[i] % radix, parts[i]);
    }
    return r;
  }
};

/// cover[(a,b)] = number of tuples covering the unordered part pair {a,b};
/// a q*q table indexed by pair_index.
inline std::vector<std::int64_t> coverage_table(
    const std::vector<std::vector<int>>& tuples, int q) {
  std::vector<std::int64_t> cover(checked_mul64(q, q), 0);
  for (const auto& s : tuples) {
    for (int a = 0; a < q; ++a) {
      for (int b = a; b < q; ++b) {
        if (multiset_covers(s, a, b)) {
          ++cover[static_cast<std::size_t>(pair_index(a, b, q))];
        }
      }
    }
  }
  return cover;
}

}  // namespace dcl
