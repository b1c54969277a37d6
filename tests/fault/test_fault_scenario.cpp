// End-to-end fault-mode soak: a full scenario with every fault knob on must
// complete connections, drive the keepalive layer, keep payments conserved,
// stay bitwise deterministic in the seed, and account for every message it
// hands to the transport.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "harness/scenario.hpp"

using namespace p2panon;
using namespace p2panon::harness;

namespace {

ScenarioConfig soak_config(std::uint64_t seed = 7) {
  ScenarioConfig cfg = paper_default_config(seed);
  cfg.overlay.node_count = 20;
  cfg.overlay.degree = 4;
  cfg.pair_count = 6;
  cfg.connections_per_pair = 3;
  cfg.warmup = sim::minutes(30.0);
  cfg.pair_start_window = sim::minutes(45.0);

  cfg.fault.link_loss = 0.05;
  cfg.fault.delay_jitter = 0.3;
  cfg.fault.crash_rate_per_hour = 6.0;
  cfg.fault.crash_recovery_mean = sim::minutes(10.0);
  cfg.fault.probe_false_negative = 0.1;

  cfg.async_setup.attempt_deadline = sim::minutes(3.0);
  cfg.data_phase.duration = 90.0;
  cfg.data_phase.keepalive_interval = 10.0;
  return cfg;
}

ScenarioConfig bank_fault_config(std::uint64_t seed) {
  ScenarioConfig cfg = soak_config(seed);
  cfg.fault.bank.claim_loss = 0.2;
  cfg.fault.bank.claim_delay_mean = sim::minutes(4.0);
  cfg.fault.bank.initiator_crash = 0.3;
  cfg.fault.bank.forwarder_crash = 0.15;
  cfg.fault.bank.claim_deadline = sim::minutes(20.0);
  cfg.fault.bank.close_after = sim::minutes(8.0);
  return cfg;
}

/// Every message the run hands to the transport is either delivered or
/// dropped, exactly once; in-sim nothing is decoded, so nothing is
/// rejected.
void expect_frames_balance(const ScenarioResult& r) {
  EXPECT_GT(r.transport_frames_sent, 0u);
  EXPECT_EQ(r.transport_frames_sent, r.transport_frames_delivered + r.transport_frames_dropped);
  EXPECT_EQ(r.transport_frames_rejected, 0u);
  // Leg/ack/keepalive drops are the injector's own coin flips; claim/close
  // frames dispatch synchronously and are never dropped (claim loss is a
  // separate bank-fault stream, counted in claims_lost).
  EXPECT_EQ(r.transport_frames_dropped, r.messages_dropped);
}

}  // namespace

TEST(FaultScenario, SoakCompletesUnderCombinedFaults) {
  const ScenarioResult r = ScenarioRunner(soak_config()).run();

  // The system must make progress despite loss + crashes + flaky probes.
  EXPECT_GT(r.connections_completed, 0u);
  EXPECT_GT(r.setup_attempts, r.connections_completed)
      << "5% loss over multi-leg setups must force at least some retries";

  // The injector must actually have been exercised.
  EXPECT_GT(r.crashes, 0u);
  EXPECT_GT(r.messages_dropped, 0u);
  EXPECT_GT(r.probe_false_negatives, 0u);

  // Data phase ran and its delivery accounting is sane.
  EXPECT_GT(r.keepalives_sent, 0u);
  EXPECT_LE(r.keepalives_delivered, r.keepalives_sent);
  EXPECT_GE(r.delivery_ratio(), 0.0);
  EXPECT_LE(r.delivery_ratio(), 1.0);

  // Keepalive timers fired, and every *attributable* failure (a path node
  // ground-truth down at detection time) produced a lag sample. Loss-induced
  // timeouts have no downed node to attribute, so samples <= detections.
  EXPECT_GT(r.failures_detected, 0u);
  EXPECT_LE(r.time_to_detect.count(),
            static_cast<std::size_t>(r.failures_detected));
  if (r.time_to_detect.count() > 0) {
    EXPECT_GT(r.time_to_detect.mean(), 0.0);
  }

  // Economic invariants hold even when connections die mid-flight.
  EXPECT_TRUE(r.payment_conserved);
}

TEST(FaultScenario, PermanentCrashesStillDetectedAndReformed) {
  // crash_recovery_mean = 0: crashed nodes are gone for good. The keepalive
  // layer must still *detect* the dead paths and re-form around the
  // survivors, and the economics must survive the shrinking population.
  ScenarioConfig cfg = soak_config(13);
  cfg.fault.link_loss = 0.0;  // isolate the crash plane
  cfg.fault.probe_false_negative = 0.0;
  cfg.fault.crash_rate_per_hour = 3.0;
  cfg.fault.crash_recovery_mean = 0.0;
  const ScenarioResult r = ScenarioRunner(cfg).run();

  EXPECT_GT(r.crashes, 0u);
  EXPECT_GT(r.connections_completed, 0u);
  EXPECT_GT(r.failures_detected, 0u)
      << "permanently dead path members must trip keepalive timers";
  EXPECT_TRUE(r.payment_conserved);
}

TEST(FaultScenario, DeterministicInSeed) {
  const ScenarioResult a = ScenarioRunner(soak_config(11)).run();
  const ScenarioResult b = ScenarioRunner(soak_config(11)).run();

  EXPECT_EQ(a.connections_completed, b.connections_completed);
  EXPECT_EQ(a.connections_failed, b.connections_failed);
  EXPECT_EQ(a.setup_attempts, b.setup_attempts);
  EXPECT_EQ(a.setup_ack_timeouts, b.setup_ack_timeouts);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.messages_dropped, b.messages_dropped);
  EXPECT_EQ(a.keepalives_sent, b.keepalives_sent);
  EXPECT_EQ(a.keepalives_delivered, b.keepalives_delivered);
  EXPECT_EQ(a.failures_detected, b.failures_detected);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.setup_time.mean()),
            std::bit_cast<std::uint64_t>(b.setup_time.mean()));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.time_to_detect.mean()),
            std::bit_cast<std::uint64_t>(b.time_to_detect.mean()));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.good_payoff.mean()),
            std::bit_cast<std::uint64_t>(b.good_payoff.mean()));
}

TEST(FaultScenario, DifferentSeedsDiverge) {
  const ScenarioResult a = ScenarioRunner(soak_config(1)).run();
  const ScenarioResult b = ScenarioRunner(soak_config(2)).run();
  // A frozen fault stream would make these identical; any live knob makes
  // collision across seeds effectively impossible.
  EXPECT_NE(a.messages_dropped, b.messages_dropped);
}

TEST(FaultScenario, FaultFreeRunSendsNoFrames) {
  // The fault-free scenario runs connections synchronously: no messages, so
  // every transport counter stays zero.
  ScenarioConfig cfg = soak_config(17);
  cfg.fault = fault::FaultConfig{};
  const ScenarioResult r = ScenarioRunner(cfg).run();
  EXPECT_GT(r.connections_completed, 0u);
  EXPECT_EQ(r.transport_frames_sent, 0u);
  EXPECT_EQ(r.transport_frames_delivered, 0u);
  EXPECT_EQ(r.transport_frames_dropped, 0u);
  EXPECT_EQ(r.transport_frames_rejected, 0u);
}

TEST(FaultScenario, TransportFramesBalanceInFaultMode) {
  const ScenarioResult r = ScenarioRunner(soak_config(23)).run();
  ASSERT_GT(r.crashes, 0u) << "config must actually exercise fault mode";
  ASSERT_GT(r.messages_dropped, 0u) << "config must actually drop frames";
  expect_frames_balance(r);
}

TEST(FaultScenario, TransportFramesBalanceInBankFaultMode) {
  const ScenarioResult r = ScenarioRunner(bank_fault_config(29)).run();
  ASSERT_GT(r.claims_submitted, 0u) << "config must actually submit claims";
  expect_frames_balance(r);
  // Claim/close traffic rides the transport too, on top of legs/acks.
  EXPECT_GT(r.transport_frames_sent, r.keepalives_sent)
      << "claim/close frames should add to the data-plane traffic";
}
