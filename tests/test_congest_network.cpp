#include "congest/congest_network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "congest/delivery_arena.h"
#include "graph/generators.h"

namespace dcl {
namespace {

TEST(CongestNetwork, SingleMessageCostsOneRound) {
  const Graph g = path_graph(3);
  CongestNetwork net(g);
  net.begin_phase("t");
  net.send(0, 1, Message{.tag = 7});
  EXPECT_EQ(net.end_phase(), 1);
  ASSERT_EQ(net.inbox(1).size(), 1u);
  EXPECT_EQ(net.inbox(1)[0].from, 0);
  EXPECT_EQ(net.inbox(1)[0].msg.tag, 7);
  EXPECT_TRUE(net.inbox(0).empty());
}

TEST(CongestNetwork, CongestionIsPerDirectedEdge) {
  const Graph g = path_graph(2);
  CongestNetwork net(g);
  net.begin_phase("t");
  for (int i = 0; i < 5; ++i) net.send(0, 1, Message{.tag = i});
  // Opposite direction does not add congestion.
  for (int i = 0; i < 2; ++i) net.send(1, 0, Message{.tag = i});
  EXPECT_EQ(net.end_phase(), 5);
  EXPECT_EQ(net.inbox(1).size(), 5u);
  EXPECT_EQ(net.inbox(0).size(), 2u);
}

TEST(CongestNetwork, ParallelEdgesDoNotInterfere) {
  // A star: center sends one message per leaf — still one round.
  const Graph g = star_graph(6);
  CongestNetwork net(g);
  net.begin_phase("t");
  for (NodeId leaf = 1; leaf < 6; ++leaf) {
    net.send(0, leaf, Message{.tag = leaf});
  }
  EXPECT_EQ(net.end_phase(), 1);
}

TEST(CongestNetwork, RejectsNonEdgeSend) {
  const Graph g = path_graph(3);
  CongestNetwork net(g);
  net.begin_phase("t");
  EXPECT_THROW(net.send(0, 2, Message{}), std::invalid_argument);
  net.end_phase();
}

TEST(CongestNetwork, PhaseProtocolEnforced) {
  const Graph g = path_graph(2);
  CongestNetwork net(g);
  EXPECT_THROW(net.send(0, 1, Message{}), std::logic_error);
  EXPECT_THROW(net.end_phase(), std::logic_error);
  net.begin_phase("a");
  EXPECT_THROW(net.begin_phase("b"), std::logic_error);
  net.end_phase();
}

TEST(CongestNetwork, EmptyPhaseIsFree) {
  const Graph g = path_graph(2);
  CongestNetwork net(g);
  net.begin_phase("idle");
  EXPECT_EQ(net.end_phase(), 0);
  EXPECT_DOUBLE_EQ(net.ledger().total_rounds(), 0.0);
}

TEST(CongestNetwork, InboxOrderDeterministic) {
  const Graph g = star_graph(5);
  CongestNetwork net(g);
  net.begin_phase("t");
  // Leaves enqueue toward the hub in scrambled order.
  net.send(4, 0, Message{.tag = 4});
  net.send(1, 0, Message{.tag = 1});
  net.send(3, 0, Message{.tag = 3});
  net.send(2, 0, Message{.tag = 2});
  net.end_phase();
  const auto& inbox = net.inbox(0);
  ASSERT_EQ(inbox.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(inbox[i].from, static_cast<NodeId>(i + 1));
  }
}

TEST(CongestNetwork, LedgerAccumulatesPhases) {
  const Graph g = path_graph(2);
  CongestNetwork net(g);
  net.begin_phase("a");
  net.send(0, 1, Message{});
  net.send(0, 1, Message{});
  net.end_phase();
  net.begin_phase("b");
  net.send(1, 0, Message{});
  net.end_phase();
  EXPECT_DOUBLE_EQ(net.ledger().total_rounds(), 3.0);
  EXPECT_EQ(net.ledger().total_messages(), 3u);
  EXPECT_EQ(net.phase_count(), 2u);
}

TEST(CongestNetwork, InboxEmptyWhileNextPhaseIsOpen) {
  const Graph g = path_graph(3);
  CongestNetwork net(g);
  net.begin_phase("a");
  net.send(0, 1, Message{.tag = 1});
  net.end_phase();
  ASSERT_EQ(net.inbox(1).size(), 1u);
  // Opening the next phase hides the previous phase's deliveries...
  net.begin_phase("b");
  EXPECT_TRUE(net.inbox(1).empty());
  // ...and an empty phase leaves every inbox empty.
  net.end_phase();
  EXPECT_TRUE(net.inbox(1).empty());
}

/// Regression for the per-phase O(2m) edge-load zero-fill: the network now
/// clears only the directed-edge slots the previous phase touched, so a
/// long sequence of sparse phases must charge exactly what the same phases
/// cost on a fresh network each time (no load may leak across phases).
TEST(CongestNetwork, SparsePhaseSequenceChargesLikeFreshNetworks) {
  Rng gen(99);
  const Graph g = erdos_renyi_gnm(60, 400, gen);
  CongestNetwork net(g);
  double expected_rounds = 0.0;
  std::uint64_t expected_msgs = 0;
  for (int phase = 0; phase < 60; ++phase) {
    CongestNetwork fresh(g);
    net.begin_phase("sparse");
    fresh.begin_phase("sparse");
    if (phase % 10 == 9) {
      // Occasional dense burst so sparse phases run right after a phase
      // that touched every slot.
      for (EdgeId e = 0; e < g.edge_count(); ++e) {
        const Edge& ed = g.edge(e);
        net.send(ed.u, ed.v, Message{.tag = phase});
        fresh.send(ed.u, ed.v, Message{.tag = phase});
        expected_msgs += 1;
      }
    } else {
      const int sends = 1 + phase % 3;
      for (int i = 0; i < sends; ++i) {
        const auto e = static_cast<EdgeId>(gen.next_below(
            static_cast<std::uint64_t>(g.edge_count())));
        const Edge& ed = g.edge(e);
        const bool forward = gen.next_bool(0.5);
        const NodeId from = forward ? ed.u : ed.v;
        const NodeId to = forward ? ed.v : ed.u;
        net.send(from, to, Message{.tag = i});
        fresh.send(from, to, Message{.tag = i});
        expected_msgs += 1;
      }
    }
    const auto fresh_rounds = fresh.end_phase();
    EXPECT_EQ(net.end_phase(), fresh_rounds) << "phase " << phase;
    expected_rounds += static_cast<double>(fresh_rounds);
  }
  EXPECT_DOUBLE_EQ(net.ledger().total_rounds(), expected_rounds);
  EXPECT_EQ(net.ledger().total_messages(), expected_msgs);
  EXPECT_EQ(net.phase_count(), 60u);
}

/// Reference delivery: the pre-arena semantics (one vector per recipient,
/// stable sort by sender) that every DeliveryArena path must reproduce
/// byte for byte.
std::vector<std::vector<Delivery>> reference_deliver(
    NodeId n, const std::vector<QueuedMessage>& queue) {
  std::vector<std::vector<std::pair<NodeId, Message>>> tagged(
      static_cast<std::size_t>(n));
  for (const QueuedMessage& q : queue) {
    tagged[static_cast<std::size_t>(q.to)].emplace_back(q.from, q.msg);
  }
  std::vector<std::vector<Delivery>> inboxes(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    auto& in = tagged[static_cast<std::size_t>(v)];
    std::stable_sort(in.begin(), in.end(),
                     [](const auto& x, const auto& y) {
                       return x.first < y.first;
                     });
    for (const auto& [from, msg] : in) {
      inboxes[static_cast<std::size_t>(v)].push_back({from, msg});
    }
  }
  return inboxes;
}

/// Generation-stamped delivery (ROADMAP lever f): a phase touching a
/// handful of endpoints must not pay — or depend on — O(n) state. The
/// regression alternates sparse phases (the stamped path), dense phases
/// (the full-sweep fallback), and empty phases on one arena, checking
/// every inbox against the reference stable sort each time: stale stamps
/// must read as empty, and no offsets may leak across phases or across
/// the dense/sparse crossover.
TEST(DeliveryArena, SparseDenseCrossoverMatchesReferenceEveryPhase) {
  const NodeId n = 257;
  DeliveryArena arena;
  arena.reset(n);
  Rng gen(123);
  for (int phase = 0; phase < 40; ++phase) {
    std::vector<QueuedMessage> queue;
    const int shape = phase % 4;
    if (shape == 3) {
      // Empty phase: everything must read as empty afterwards.
    } else if (shape == 2) {
      // Dense burst: well past the n/4 touched threshold.
      for (NodeId v = 0; v < n; ++v) {
        for (int i = 0; i < 2; ++i) {
          queue.push_back({v,
                           static_cast<NodeId>(gen.next_below(
                               static_cast<std::uint64_t>(n))),
                           Message{.tag = phase, .a = v, .b = i}});
        }
      }
    } else {
      // Sparse: a handful of senders/recipients out of 257, repeated
      // senders so per-sender send order matters.
      const int sends = 1 + static_cast<int>(gen.next_below(9));
      for (int i = 0; i < sends; ++i) {
        const auto from = static_cast<NodeId>(gen.next_below(7));
        const auto to =
            static_cast<NodeId>(gen.next_below(static_cast<std::uint64_t>(n)));
        queue.push_back({from, to, Message{.tag = phase, .a = i}});
      }
    }
    arena.invalidate();
    EXPECT_EQ(arena.delivered_count(), 0u);
    arena.deliver(queue);
    const auto expected = reference_deliver(n, queue);
    EXPECT_EQ(arena.delivered_count(), queue.size()) << "phase " << phase;
    for (NodeId v = 0; v < n; ++v) {
      const auto in = arena.inbox(v);
      const auto& want = expected[static_cast<std::size_t>(v)];
      ASSERT_EQ(in.size(), want.size()) << "phase " << phase << " v " << v;
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(in[i].from, want[i].from);
        EXPECT_EQ(in[i].msg.tag, want[i].msg.tag);
        EXPECT_EQ(in[i].msg.a, want[i].msg.a);
        EXPECT_EQ(in[i].msg.b, want[i].msg.b);
      }
    }
  }
}

/// The ledger contract of the stamped arena, end to end through the
/// network: a long sparse-phase sequence on a large graph must charge and
/// deliver exactly like fresh networks (the sparse-phase analogue of the
/// edge-load regression above, now covering the delivery plane too).
TEST(CongestNetwork, SparsePhaseDeliveryMatchesFreshNetworks) {
  Rng gen(321);
  const Graph g = erdos_renyi_gnm(300, 1200, gen);
  CongestNetwork net(g);
  for (int phase = 0; phase < 30; ++phase) {
    CongestNetwork fresh(g);
    net.begin_phase("sparse");
    fresh.begin_phase("sparse");
    const int sends = 1 + phase % 4;  // touches ≤ 8 of 300 nodes
    for (int i = 0; i < sends; ++i) {
      const auto e = static_cast<EdgeId>(
          gen.next_below(static_cast<std::uint64_t>(g.edge_count())));
      const Edge& ed = g.edge(e);
      net.send(ed.u, ed.v, Message{.tag = phase, .a = i});
      fresh.send(ed.u, ed.v, Message{.tag = phase, .a = i});
    }
    EXPECT_EQ(net.end_phase(), fresh.end_phase()) << "phase " << phase;
    for (NodeId v = 0; v < g.node_count(); ++v) {
      const auto a = net.inbox(v);
      const auto b = fresh.inbox(v);
      ASSERT_EQ(a.size(), b.size()) << "phase " << phase << " v " << v;
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].from, b[i].from);
        EXPECT_EQ(a[i].msg.tag, b[i].msg.tag);
        EXPECT_EQ(a[i].msg.a, b[i].msg.a);
      }
    }
  }
}

/// Differential fuzz: the network's congestion accounting must equal a
/// slow reference computation (per-directed-edge counters built
/// independently) across random traffic patterns.
TEST(CongestNetwork, CongestionMatchesReferenceOnRandomTraffic) {
  Rng gen(77);
  const Graph g = erdos_renyi_gnm(40, 200, gen);
  for (int trial = 0; trial < 20; ++trial) {
    CongestNetwork net(g);
    net.begin_phase("fuzz");
    std::map<std::pair<NodeId, NodeId>, std::int64_t> reference;
    const int sends = 1 + static_cast<int>(gen.next_below(300));
    for (int i = 0; i < sends; ++i) {
      const auto e = static_cast<EdgeId>(gen.next_below(
          static_cast<std::uint64_t>(g.edge_count())));
      const Edge& ed = g.edge(e);
      const bool forward = gen.next_bool(0.5);
      const NodeId from = forward ? ed.u : ed.v;
      const NodeId to = forward ? ed.v : ed.u;
      net.send(from, to, Message{.tag = i});
      ++reference[{from, to}];
    }
    std::int64_t expected = 0;
    std::uint64_t expected_msgs = 0;
    for (const auto& [key, load] : reference) {
      expected = std::max(expected, load);
      expected_msgs += static_cast<std::uint64_t>(load);
    }
    EXPECT_EQ(net.end_phase(), expected) << "trial " << trial;
    std::uint64_t delivered = 0;
    for (NodeId v = 0; v < g.node_count(); ++v) {
      delivered += net.inbox(v).size();
    }
    EXPECT_EQ(delivered, expected_msgs);
  }
}

}  // namespace
}  // namespace dcl
