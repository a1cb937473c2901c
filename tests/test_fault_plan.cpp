// Unit tests for the deterministic fault-injection plane (fault_plan.h):
// spec parsing, the seeded decision hash, recovery semantics, the recorded
// schedule's serialize/replay round-trip, and the FaultSession hooks.
#include "congest/fault_plan.h"

#include <gtest/gtest.h>

#include <sstream>

#include "congest/round_ledger.h"

namespace dcl {
namespace {

TEST(FaultSpec, ParsesFullSpec) {
  const auto spec = FaultSpec::parse(
      "drop=0.1,dup=0.05,delay=0.02:3,retries=4,seed=7,crash=5@2,crash=9@0");
  EXPECT_DOUBLE_EQ(spec.drop_rate, 0.1);
  EXPECT_DOUBLE_EQ(spec.dup_rate, 0.05);
  EXPECT_DOUBLE_EQ(spec.delay_rate, 0.02);
  EXPECT_EQ(spec.max_delay, 3);
  EXPECT_EQ(spec.max_retries, 4);
  EXPECT_EQ(spec.seed, 7u);
  ASSERT_EQ(spec.crashes.size(), 2u);
  EXPECT_EQ(spec.crashes[0], (CrashEvent{5, 2}));
  EXPECT_EQ(spec.crashes[1], (CrashEvent{9, 0}));
  EXPECT_TRUE(spec.enabled());
}

TEST(FaultSpec, DefaultsAndTextRoundTrip) {
  const FaultSpec def;
  EXPECT_FALSE(def.enabled());
  const auto spec = FaultSpec::parse("drop=0.25,delay=0.5:7,crash=3@1");
  const auto back = FaultSpec::parse(spec.to_text());
  EXPECT_DOUBLE_EQ(back.drop_rate, spec.drop_rate);
  EXPECT_DOUBLE_EQ(back.dup_rate, spec.dup_rate);
  EXPECT_DOUBLE_EQ(back.delay_rate, spec.delay_rate);
  EXPECT_EQ(back.max_delay, spec.max_delay);
  EXPECT_EQ(back.max_retries, spec.max_retries);
  EXPECT_EQ(back.seed, spec.seed);
  EXPECT_EQ(back.crashes, spec.crashes);
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  const char* bad[] = {
      "drop",                 // no '='
      "drop=1.5",             // rate out of [0,1]
      "drop=-0.1",            // negative rate
      "drop=abc",             // non-numeric
      "drop=0.6,dup=0.6",     // rates sum over 1
      "retries=63",           // retry budget over 62
      "retries=-1",           // negative retries
      "delay=0.1:0",          // delay bound below 1
      "delay=0.1:2000000",    // delay bound over 1e6
      "crash=5",              // missing @CLOCK
      "crash=-2@0",           // negative crash node
      "crash=x@0",            // non-numeric node
      "warp=0.5",             // unknown key
  };
  for (const char* text : bad) {
    SCOPED_TRACE(text);
    EXPECT_THROW(FaultSpec::parse(text), std::runtime_error);
  }
}

TEST(FaultPlan, DecisionsAreDeterministicPureFunctions) {
  FaultPlan a(FaultSpec::parse("drop=0.2,dup=0.2,delay=0.2:4,seed=11"));
  FaultPlan b(FaultSpec::parse("drop=0.2,dup=0.2,delay=0.2:4,seed=11"));
  bool saw_fault = false;
  for (std::int64_t clock = 0; clock < 4; ++clock) {
    for (std::uint64_t idx = 0; idx < 64; ++idx) {
      const auto da = a.decide(clock, FaultPlan::edge_key(1, 2), idx, 0);
      const auto db = b.decide(clock, FaultPlan::edge_key(1, 2), idx, 0);
      EXPECT_EQ(da.action, db.action);
      EXPECT_EQ(da.delay, db.delay);
      saw_fault |= da.action != FaultAction::deliver;
    }
  }
  EXPECT_TRUE(saw_fault) << "0.6 fault mass over 256 draws never fired";
  // A different seed must produce a different history somewhere.
  FaultPlan c(FaultSpec::parse("drop=0.2,dup=0.2,delay=0.2:4,seed=12"));
  bool differs = false;
  for (std::uint64_t idx = 0; idx < 64 && !differs; ++idx) {
    differs = c.decide(0, FaultPlan::edge_key(1, 2), idx, 0).action !=
              a.decide(0, FaultPlan::edge_key(1, 2), idx, 0).action;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultPlan, DisabledPlanDeliversEverythingAndRecordsNothing) {
  FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  for (std::uint64_t idx = 0; idx < 32; ++idx) {
    EXPECT_EQ(plan.decide(0, idx, idx, 0).action, FaultAction::deliver);
  }
  EXPECT_TRUE(plan.schedule().empty());
  const auto o = plan.recover(0, 1, 2);
  EXPECT_EQ(o.extra_rounds, 0);
  EXPECT_FALSE(o.lost);
}

TEST(FaultPlan, RateOneSpecsPinTheLadder) {
  FaultPlan drops(FaultSpec::parse("drop=1,retries=0"));
  EXPECT_EQ(drops.decide(0, 1, 2, 0).action, FaultAction::drop);
  FaultPlan dups(FaultSpec::parse("dup=1"));
  EXPECT_EQ(dups.decide(0, 1, 2, 0).action, FaultAction::duplicate);
  FaultPlan delays(FaultSpec::parse("delay=1:5"));
  const auto d = delays.decide(0, 1, 2, 0);
  EXPECT_EQ(d.action, FaultAction::delay);
  EXPECT_GE(d.delay, 1);
  EXPECT_LE(d.delay, 5);
}

TEST(FaultPlan, RecoverRunsTheAckRetransmitProtocol) {
  // Every attempt drops: the message is lost after 1 + retries attempts,
  // having charged the full exponential backoff 1 + 2 + 4 = 7 rounds.
  FaultPlan lost(FaultSpec::parse("drop=1,retries=3"));
  const auto o = lost.recover(0, FaultPlan::edge_key(0, 1), 0);
  EXPECT_TRUE(o.lost);
  EXPECT_EQ(o.retransmissions, 3);
  EXPECT_EQ(o.extra_rounds, 1 + 2 + 4);

  // Duplication costs one extra copy and zero extra rounds.
  FaultPlan dup(FaultSpec::parse("dup=1"));
  const auto od = dup.recover(0, FaultPlan::edge_key(0, 1), 0);
  EXPECT_FALSE(od.lost);
  EXPECT_EQ(od.duplicates, 1);
  EXPECT_EQ(od.extra_rounds, 0);

  // A delay is waited out within the ack timeout.
  FaultPlan delay(FaultSpec::parse("delay=1:4"));
  const auto ol = delay.recover(0, FaultPlan::edge_key(0, 1), 0);
  EXPECT_FALSE(ol.lost);
  EXPECT_GE(ol.extra_rounds, 1);
  EXPECT_LE(ol.extra_rounds, 4);
}

TEST(FaultPlan, RecoverPhaseFoldsMaxRoundsSumCopies) {
  // Phase semantics: edges run in parallel, so extra rounds take the max
  // while retransmitted copies sum. With drop=1,retries=2 every message is
  // lost after 1+2 = 3 backoff rounds and 2 retransmissions.
  FaultPlan plan(FaultSpec::parse("drop=1,retries=2"));
  const auto pf = plan.recover_phase(0, FaultPlan::label_key("phase"), 10);
  EXPECT_EQ(pf.retry_rounds, 1 + 2);
  EXPECT_EQ(pf.retransmitted, 20u);
  EXPECT_EQ(pf.dropped, 10u);
  EXPECT_EQ(pf.lost, 10u);
}

TEST(FaultPlan, KeysNeverCollideAcrossKinds) {
  // Phase keys set the top bit; edge keys pack two non-negative 32-bit ids,
  // so the spaces are disjoint and a phase can never shadow an edge.
  EXPECT_NE(FaultPlan::label_key("a"), FaultPlan::label_key("b"));
  EXPECT_TRUE(FaultPlan::label_key("cluster-announce") >> 63);
  EXPECT_FALSE(FaultPlan::edge_key(1'000'000, 2'000'000) >> 63);
  EXPECT_NE(FaultPlan::edge_key(1, 2), FaultPlan::edge_key(2, 1));
}

TEST(FaultPlan, SerializeReplayRoundTripIsExact) {
  FaultPlan plan(FaultSpec::parse("drop=0.3,dup=0.2,delay=0.2:3,seed=42"));
  // Generate a history across clocks, keys and attempts.
  std::vector<FaultDecision> history;
  for (std::int64_t clock = 0; clock < 3; ++clock) {
    for (std::uint64_t idx = 0; idx < 40; ++idx) {
      history.push_back(plan.decide(clock, FaultPlan::edge_key(3, 4), idx,
                                    static_cast<int>(idx % 2)));
    }
  }
  ASSERT_FALSE(plan.schedule().empty());

  std::stringstream ss;
  plan.serialize(ss);
  FaultPlan replay = FaultPlan::deserialize(ss);
  EXPECT_TRUE(replay.replaying());
  EXPECT_EQ(replay.schedule().size(), plan.schedule().size());

  std::size_t i = 0;
  for (std::int64_t clock = 0; clock < 3; ++clock) {
    for (std::uint64_t idx = 0; idx < 40; ++idx, ++i) {
      const auto d = replay.decide(clock, FaultPlan::edge_key(3, 4), idx,
                                   static_cast<int>(idx % 2));
      EXPECT_EQ(d.action, history[i].action);
      EXPECT_EQ(d.delay, history[i].delay);
    }
  }
  // Coordinates never recorded replay as clean deliveries.
  EXPECT_EQ(replay.decide(99, 1, 1, 0).action, FaultAction::deliver);
}

TEST(FaultPlan, DeserializeRejectsCorruptSchedules) {
  const char* bad[] = {
      "not-a-plan\n",
      "dcl-fault-plan v1\nspec drop=0.1\n",               // missing end
      "dcl-fault-plan v1\nevent 0 1 2\nend\n",            // truncated event
      "dcl-fault-plan v1\nevent 0 1 2 0 warp\nend\n",     // unknown action
      "dcl-fault-plan v1\nevent 0 1 2 0 delay\nend\n",    // delay without k
      "dcl-fault-plan v1\nbogus line\nend\n",             // unknown tag
  };
  for (const char* text : bad) {
    SCOPED_TRACE(text);
    std::stringstream ss(text);
    EXPECT_THROW(FaultPlan::deserialize(ss), std::runtime_error);
  }
}

TEST(FaultSession, InactiveSessionIsFree) {
  FaultSession session;  // no plan attached
  EXPECT_FALSE(session.active());
  RoundLedger ledger;
  EXPECT_EQ(session.charge_exchange(ledger, "phase", 2.0, 100), 0u);
  ASSERT_EQ(ledger.entries().size(), 1u);  // the base charge only
  EXPECT_EQ(ledger.entries()[0].label, "phase");
  EXPECT_DOUBLE_EQ(ledger.retry_rounds(), 0.0);
  EXPECT_TRUE(session.detect_crashes(8).empty());

  FaultPlan disabled;
  session.plan = &disabled;
  EXPECT_FALSE(session.active()) << "a no-fault plan must keep hooks free";
}

TEST(FaultSession, DetectCrashesGatesOnClockAndDedups) {
  FaultPlan plan(FaultSpec::parse("drop=0,dup=0,crash=2@0,crash=5@3"));
  FaultSession session;
  session.plan = &plan;
  ASSERT_TRUE(session.active());

  auto newly = session.detect_crashes(8);
  ASSERT_EQ(newly.size(), 1u);
  EXPECT_EQ(newly[0], 2);
  EXPECT_TRUE(session.is_dead(2));
  EXPECT_FALSE(session.is_dead(5));

  session.clock = 3;
  newly = session.detect_crashes(8);
  ASSERT_EQ(newly.size(), 1u);
  EXPECT_EQ(newly[0], 5);
  EXPECT_TRUE(session.detect_crashes(8).empty()) << "no double detection";
  EXPECT_EQ(session.dead_count(), 2u);

  RoundLedger ledger;
  session.charge_crash_timeout(ledger, newly.size());
  ASSERT_EQ(ledger.entries().size(), 1u);
  EXPECT_EQ(ledger.entries()[0].label, "crash-detect-timeout");
  EXPECT_DOUBLE_EQ(ledger.entries()[0].rounds, 1.0);
  session.charge_crash_timeout(ledger, 0);  // empty sweeps are free
  EXPECT_EQ(ledger.entries().size(), 1u);
}

TEST(FaultSession, ChargeExchangeAddsRetryEntryAndAdvancesClock) {
  FaultPlan plan(FaultSpec::parse("drop=1,retries=2,seed=3"));
  FaultSession session;
  session.plan = &plan;
  RoundLedger ledger;

  const auto lost = session.charge_exchange(ledger, "phase", 4.0, 5);
  EXPECT_EQ(lost, 5u);  // drop=1 exhausts every budget
  EXPECT_EQ(session.clock, 1);
  EXPECT_EQ(session.lost_messages, 5u);

  // Base charge, the retry entry, then the escalated resend.
  ASSERT_EQ(ledger.entries().size(), 3u);
  EXPECT_EQ(ledger.entries()[0].label, "phase");
  EXPECT_DOUBLE_EQ(ledger.entries()[0].rounds, 4.0);
  EXPECT_EQ(ledger.entries()[1].label, "phase [retry]");
  EXPECT_DOUBLE_EQ(ledger.entries()[1].rounds, 3.0);  // backoff 1+2
  EXPECT_EQ(ledger.entries()[1].messages, 10u);       // 2 retransmits x 5
  EXPECT_EQ(ledger.entries()[2].label, "phase [resend]");
  EXPECT_EQ(ledger.entries()[2].messages, 5u);
  EXPECT_DOUBLE_EQ(ledger.retry_rounds(), 3.0);
  EXPECT_EQ(ledger.retransmitted_messages(), 10u);
  EXPECT_EQ(ledger.lost_messages(), 5u);
}

TEST(FaultSession, CleanPhasesChargeExactlyTheFaultFreeCost) {
  // An enabled plan whose hash happens to deliver a phase cleanly must add
  // nothing beyond the base entry (the disabled-cost-nothing guarantee is
  // checked per phase, not just per run).
  FaultPlan plan(FaultSpec::parse("crash=7@50"));  // crashes only, far future
  FaultSession session;
  session.plan = &plan;
  RoundLedger ledger;
  session.charge_exchange(ledger, "phase", 2.0, 1000);
  ASSERT_EQ(ledger.entries().size(), 1u);
  EXPECT_DOUBLE_EQ(ledger.total_rounds(), 2.0);
  EXPECT_DOUBLE_EQ(ledger.retry_rounds(), 0.0);
}

}  // namespace
}  // namespace dcl
