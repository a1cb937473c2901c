#include "core/in_cluster_listing.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/intersect.h"
#include "common/math_util.h"
#include "core/part_tables.h"
#include "enumeration/clique_enumeration.h"

namespace dcl {

InClusterPlan in_cluster_plan(const InClusterProblem& problem, Rng& rng) {
  const Graph& base = *problem.base;
  const Cluster& cluster = *problem.cluster;
  const auto& holders = *problem.edges_by_holder;
  const int p = problem.p;
  const auto k = to_node(cluster.nodes.size());
  if (holders.size() != static_cast<std::size_t>(k)) {
    throw std::invalid_argument("in_cluster_plan: holder count mismatch");
  }

  InClusterPlan plan;
  plan.cluster = &cluster;
  plan.p = p;
  const int q = std::max<int>(
      1, static_cast<int>(floor_pow(static_cast<std::int64_t>(k),
                                    1.0 / static_cast<double>(p))));
  plan.q = q;
  plan.cost.parts = q;

  // Step 1: random partition of the whole vertex set into q parts. (In the
  // distributed execution each cluster node draws the choices for its
  // responsibility range and broadcasts them; the broadcast is charged by
  // the caller. The draw itself is the same uniform choice.)
  std::vector<int> part(static_cast<std::size_t>(base.node_count()));
  for (auto& pt : part) {
    pt = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(q)));
  }

  // Step 2: part multisets per cluster node, and the coverage table
  // cover[(a,b)] = number of cluster nodes whose multiset covers {a,b}.
  std::vector<std::vector<int>> tuple(static_cast<std::size_t>(k));
  for (NodeId j = 0; j < k; ++j) {
    tuple[static_cast<std::size_t>(j)] = part_multiset(j, q, p);
  }
  const std::vector<std::int64_t> cover = coverage_table(tuple, q);

  // Step 3: bucket every known edge by its unordered part pair, tracking
  // exact send loads (holder sends each edge to every covering node). The
  // goal flag is resolved here, once per held edge per cluster — each
  // representative reads it for free instead of re-deriving it with
  // base-graph edge_id binary searches (ROADMAP lever b).
  struct HeldEdge {
    KnownEdge e;
    bool goal = false;
  };
  std::vector<std::vector<HeldEdge>> bucket(checked_mul64(q, q));
  std::vector<std::int64_t> send_load(static_cast<std::size_t>(k), 0);
  for (NodeId holder = 0; holder < k; ++holder) {
    for (const KnownEdge& e : holders[static_cast<std::size_t>(holder)]) {
      const int a = part[static_cast<std::size_t>(e.tail)];
      const int b = part[static_cast<std::size_t>(e.head)];
      const int idx = pair_index(a, b, q);
      const auto eid = base.edge_id(e.tail, e.head);
      bucket[static_cast<std::size_t>(idx)].push_back(
          HeldEdge{e, eid.has_value() && (*problem.goal_edge)[*eid]});
      send_load[static_cast<std::size_t>(holder)] +=
          cover[static_cast<std::size_t>(idx)];
    }
  }

  // ---- Step 3.5: compile the buckets into interned fragments. ------------
  //
  // Compact interning over base ids. The dense base-id → compact-id map is
  // thread_local so its O(n) storage is NOT re-allocated per cluster call,
  // and safe under the cluster-parallel caller: each worker thread owns its
  // own buffer. The invariant is "all `global_to_compact` slots are -1
  // between uses"; the scope guard below restores it on every exit path
  // (including exceptions) by walking the ids interned so far. The compact
  // id list itself lives in the returned plan — the plan owns all the data
  // the enumeration half reads, so enumeration may run on other threads.
  static thread_local std::vector<NodeId> global_to_compact;
  const auto needed = static_cast<std::size_t>(base.node_count());
  if (global_to_compact.size() < needed) {
    global_to_compact.resize(needed, -1);
  } else if (global_to_compact.size() > std::max<std::size_t>(4 * needed,
                                                              4096)) {
    // All slots are -1 between uses, so a fresh buffer is equivalent; drop
    // storage left over from a much larger earlier base graph.
    std::vector<NodeId>(needed, -1).swap(global_to_compact);
  }
  struct InternReset {
    std::vector<NodeId>& dense;
    const std::vector<NodeId>& ids;
    ~InternReset() {
      for (const NodeId g : ids) dense[static_cast<std::size_t>(g)] = -1;
    }
  } intern_reset{global_to_compact, plan.compact_to_global};

  // Collect the distinct endpoints of every bucket and order them by
  // (part, global id): each part's nodes then occupy one contiguous
  // compact range, so a node's part-b neighbors form one ascending id
  // block and a representative's adjacency rows come out fully sorted by
  // concatenating its covered fragments in ascending part order.
  for (const auto& bkt : bucket) {
    for (const HeldEdge& he : bkt) {
      for (const NodeId g : {he.e.tail, he.e.head}) {
        NodeId& slot = global_to_compact[static_cast<std::size_t>(g)];
        if (slot < 0) {
          slot = 0;  // seen; the real id is assigned after the sort
          plan.compact_to_global.push_back(g);
        }
      }
    }
  }
  std::sort(plan.compact_to_global.begin(), plan.compact_to_global.end(),
            [&](NodeId x, NodeId y) {
              const int px = part[static_cast<std::size_t>(x)];
              const int py = part[static_cast<std::size_t>(y)];
              return px != py ? px < py : x < y;
            });
  const auto compact_n = to_node(plan.compact_to_global.size());
  plan.compact_n = compact_n;
  for (NodeId c = 0; c < compact_n; ++c) {
    global_to_compact[static_cast<std::size_t>(
        plan.compact_to_global[static_cast<std::size_t>(c)])] = c;
  }
  plan.part_begin.assign(static_cast<std::size_t>(q) + 1, 0);
  for (NodeId c = 0; c < compact_n; ++c) {
    ++plan.part_begin[static_cast<std::size_t>(
        part[static_cast<std::size_t>(
            plan.compact_to_global[static_cast<std::size_t>(c)])]) + 1];
  }
  for (int a = 0; a < q; ++a) {
    plan.part_begin[static_cast<std::size_t>(a) + 1] +=
        plan.part_begin[static_cast<std::size_t>(a)];
  }

  // Compile each non-empty bucket once: sort its compact edge pairs, dedup
  // (goal flags merge by OR — the union of held copies), and lay the rows
  // out as a CSR over the lower part's compact range. This is the only
  // O(m log m) pass left; every representative reuses it.
  plan.fragments.resize(checked_mul64(q, q));
  {
    struct CompactEdge {
      NodeId lo, hi;
      std::uint8_t goal;
    };
    std::vector<CompactEdge> scratch;
    for (int a = 0; a < q; ++a) {
      for (int b = a; b < q; ++b) {
        const auto& bkt = bucket[static_cast<std::size_t>(pair_index(a, b, q))];
        if (bkt.empty()) continue;
        scratch.clear();
        scratch.reserve(bkt.size());
        for (const HeldEdge& he : bkt) {
          NodeId cu = global_to_compact[static_cast<std::size_t>(he.e.tail)];
          NodeId cv = global_to_compact[static_cast<std::size_t>(he.e.head)];
          if (cu > cv) std::swap(cu, cv);
          scratch.push_back(
              CompactEdge{cu, cv, static_cast<std::uint8_t>(he.goal)});
        }
        std::sort(scratch.begin(), scratch.end(),
                  [](const CompactEdge& x, const CompactEdge& y) {
                    return x.lo != y.lo ? x.lo < y.lo : x.hi < y.hi;
                  });
        InClusterPlan::Fragment& f =
            plan.fragments[static_cast<std::size_t>(pair_index(a, b, q))];
        const NodeId lo_begin = plan.part_begin[static_cast<std::size_t>(a)];
        const NodeId lo_end = plan.part_begin[static_cast<std::size_t>(a) + 1];
        f.off.assign(static_cast<std::size_t>(lo_end - lo_begin) + 1, 0);
        f.nbr.reserve(scratch.size());
        f.goal.reserve(scratch.size());
        for (std::size_t i = 0; i < scratch.size(); ++i) {
          const CompactEdge& ce = scratch[i];
          if (i > 0 && scratch[i - 1].lo == ce.lo &&
              scratch[i - 1].hi == ce.hi) {
            // Duplicate held copy of the same edge: keep one, OR the goal.
            auto& g = f.goal.back();
            f.goal_count += static_cast<std::int64_t>(ce.goal & ~g);
            g |= ce.goal;
            continue;
          }
          f.nbr.push_back(ce.hi);
          f.goal.push_back(ce.goal);
          f.goal_count += ce.goal;
          ++f.off[static_cast<std::size_t>(ce.lo - lo_begin) + 1];
        }
        for (std::size_t r = 1; r < f.off.size(); ++r) {
          f.off[r] += f.off[r - 1];
        }
      }
    }
  }

  // Receive loads, then the representative roster. Nodes with identical
  // part multisets receive identical edge sets and would produce identical
  // outputs, so only the first representative of each multiset enumerates
  // (a pure simulation shortcut: loads are still accounted for every node,
  // and the *union* of outputs — the correctness contract — is unchanged).
  // The representative of a multiset is its minimum cluster index, read
  // from the sorted flat table. Representatives that cannot report anything
  // (too few edges for a Kp, or no goal edge received) are dropped HERE, at
  // plan time, so the enumeration half's work items are all real work.
  const std::vector<NodeId> rep = representative_table(tuple, q);
  std::vector<std::int64_t> recv_load(static_cast<std::size_t>(k), 0);
  std::vector<InClusterPlan::FragRef> refs;  // current rep's covered frags
  std::vector<std::uint64_t> deg;            // row-degree scratch, per part
  for (NodeId j = 0; j < k; ++j) {
    const auto& s = tuple[static_cast<std::size_t>(j)];
    const bool is_rep = rep[static_cast<std::size_t>(j)] == j;
    std::int64_t rep_edges = 0;
    std::int64_t rep_goals = 0;
    refs.clear();
    for (int a = 0; a < q; ++a) {
      for (int b = a; b < q; ++b) {
        if (!multiset_covers(s, a, b)) continue;
        const auto idx = static_cast<std::size_t>(pair_index(a, b, q));
        recv_load[static_cast<std::size_t>(j)] +=
            static_cast<std::int64_t>(bucket[idx].size());
        if (!is_rep) continue;
        const InClusterPlan::Fragment& f = plan.fragments[idx];
        if (f.edge_count() == 0) continue;
        refs.push_back(
            InClusterPlan::FragRef{a, static_cast<std::uint32_t>(idx)});
        rep_edges += f.edge_count();
        rep_goals += f.goal_count;
      }
    }
    if (!is_rep || rep_edges < p * (p - 1) / 2 || rep_goals == 0) {
      continue;
    }
    // Out-degree² work estimate: for each local-graph source row, the row
    // degree is the sum of the covered fragments' row lengths (refs with
    // equal lower_part are consecutive — the (a, b) walk above ascends).
    // Accumulated fragment-by-fragment into a per-part degree scratch so
    // each `off` array is read in one sequential pass. 64-bit throughout:
    // one hub row alone can push the square past 2^32.
    std::uint64_t est = 0;
    for (std::size_t i = 0; i < refs.size();) {
      const int a = refs[i].lower_part;
      std::size_t fend = i;
      while (fend < refs.size() && refs[fend].lower_part == a) ++fend;
      const NodeId lo_begin = plan.part_begin[static_cast<std::size_t>(a)];
      const NodeId lo_end = plan.part_begin[static_cast<std::size_t>(a) + 1];
      const auto rows = static_cast<std::size_t>(lo_end - lo_begin);
      deg.assign(rows, 0);
      for (std::size_t fi = i; fi < fend; ++fi) {
        const auto& off = plan.fragments[refs[fi].frag].off;
        for (std::size_t row = 0; row < rows; ++row) {
          deg[row] += off[row + 1] - off[row];
        }
      }
      for (std::size_t row = 0; row < rows; ++row) {
        const auto d = static_cast<std::uint64_t>(deg[row]);
        est += d * d;
      }
      i = fend;
    }
    InClusterPlan::Rep r;
    r.node = j;
    r.edges = rep_edges;
    r.all_goal = rep_goals == rep_edges;
    r.est_work = est;
    r.frag_begin = plan.frag_refs.size();
    plan.frag_refs.insert(plan.frag_refs.end(), refs.begin(), refs.end());
    r.frag_end = plan.frag_refs.size();
    plan.est_work_total += est;
    plan.reps.push_back(r);
  }

  for (NodeId j = 0; j < k; ++j) {
    plan.cost.max_send =
        std::max(plan.cost.max_send, send_load[static_cast<std::size_t>(j)]);
    plan.cost.max_recv =
        std::max(plan.cost.max_recv, recv_load[static_cast<std::size_t>(j)]);
    plan.cost.messages += static_cast<std::uint64_t>(
        recv_load[static_cast<std::size_t>(j)]);
  }

  if (problem.charge_mode == InClusterChargeMode::worst_case) {
    // Oblivious schedule: every node must budget p² slots of (n/q)²
    // potential pairs regardless of how many edges actually exist.
    const std::int64_t part_size =
        ceil_div(static_cast<std::int64_t>(base.node_count()), q);
    const std::int64_t budget = static_cast<std::int64_t>(p) * p * part_size *
                                part_size / 2;
    plan.cost.max_send = std::max(plan.cost.max_send, budget);
    plan.cost.max_recv = std::max(plan.cost.max_recv, budget);
  }
  return plan;
}

std::uint64_t in_cluster_enumerate(const InClusterPlan& plan,
                                   std::size_t rep_begin, std::size_t rep_end,
                                   ListingOutput& out) {
  const int p = plan.p;
  std::uint64_t reported = 0;
  std::vector<Edge> edges;
  std::vector<std::uint8_t> edge_goal;
  EdgeMask local_goal;
  std::vector<NodeId> global(static_cast<std::size_t>(p));
  std::vector<const InClusterPlan::Fragment*> frags;  // current part's group
  for (std::size_t r = rep_begin; r < rep_end; ++r) {
    const InClusterPlan::Rep& rep = plan.reps[r];
    const bool all_goal = rep.all_goal;
    // Assemble the local graph by concatenating the covered fragments.
    // Compact ids ascend part-major, so walking parts in ascending order
    // and each part's range in ascending id order visits sources in
    // ascending compact order, and each source's covered rows (its own
    // part first, then higher parts) concatenate into one ascending
    // neighbor run — the emitted edge list is lexicographically sorted by
    // construction and feeds the sort-free Graph factory. Edge ids equal
    // emission positions, so the goal flags land on local ids with no
    // lookups at all.
    edges.clear();
    edges.reserve(static_cast<std::size_t>(rep.edges));
    edge_goal.clear();
    for (std::uint64_t i = rep.frag_begin; i < rep.frag_end;) {
      const int a = plan.frag_refs[i].lower_part;
      std::uint64_t fend = i;
      while (fend < rep.frag_end && plan.frag_refs[fend].lower_part == a) {
        ++fend;
      }
      const NodeId lo_begin = plan.part_begin[static_cast<std::size_t>(a)];
      const NodeId lo_end = plan.part_begin[static_cast<std::size_t>(a) + 1];
      frags.clear();
      for (std::uint64_t fi = i; fi < fend; ++fi) {
        frags.push_back(&plan.fragments[plan.frag_refs[fi].frag]);
      }
      for (NodeId u = lo_begin; u < lo_end; ++u) {
        const auto row = static_cast<std::size_t>(u - lo_begin);
        for (const InClusterPlan::Fragment* f : frags) {
          const std::uint64_t rb = f->off[row];
          const std::uint64_t re = f->off[row + 1];
          for (std::uint64_t x = rb; x < re; ++x) {
            edges.push_back(Edge{u, f->nbr[x]});
            if (!all_goal) edge_goal.push_back(f->goal[x]);
          }
        }
      }
      i = fend;
    }
    if (!all_goal) {
      local_goal.assign(static_cast<EdgeId>(edges.size()), false);
      for (std::size_t e = 0; e < edge_goal.size(); ++e) {
        if (edge_goal[e]) local_goal.set(static_cast<EdgeId>(e));
      }
    }
    const Graph local =
        Graph::from_sorted_edges(plan.compact_n, std::move(edges));
    edges = {};  // moved-from; reset for the next representative
    const std::vector<NodeId> flat = list_k_cliques_flat(local, p);
    const auto width = static_cast<std::size_t>(p);
    for (std::size_t at = 0; at < flat.size(); at += width) {
      const NodeId* c = flat.data() + at;
      // Report only cliques containing at least one goal edge of C — the
      // task assigned to this cluster (others are other iterations' work).
      bool has_goal = all_goal;
      for (std::size_t x = 0; x < width && !has_goal; ++x) {
        for (std::size_t y = x + 1; y < width && !has_goal; ++y) {
          const auto leid = local.edge_id(c[x], c[y]);
          has_goal = local_goal[*leid];
        }
      }
      if (!has_goal) continue;
      for (std::size_t i = 0; i < width; ++i) {
        global[i] = plan.compact_to_global[static_cast<std::size_t>(c[i])];
      }
      out.report(plan.cluster->nodes[static_cast<std::size_t>(rep.node)],
                 global);
      ++reported;
    }
  }
  return reported;
}

InClusterCost in_cluster_list(const InClusterProblem& problem, Rng& rng,
                              ListingOutput& out) {
  const InClusterPlan plan = in_cluster_plan(problem, rng);
  InClusterCost cost = plan.cost;
  cost.cliques_reported = in_cluster_enumerate(plan, 0, plan.reps.size(), out);
  return cost;
}

}  // namespace dcl
