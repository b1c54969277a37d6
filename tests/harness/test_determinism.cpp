// Cross-thread-count determinism regression tests (and, under the `tsan`
// preset, the full-scenario race stressor).
//
// The replication layer's contract is that the thread pool is invisible in
// the results: seed s produces one exact ScenarioResult, bit for bit, whether
// replicates run serially or across any pool size. PR 1 concentrated the hot
// path into shared-looking (but per-replicate) caches, so this is the test
// that would catch a cache accidentally shared across replicate threads —
// EXPECT_DOUBLE_EQ tolerance would mask exactly the low-bit divergence such a
// leak produces first, hence the full-bit comparisons of expect_bits.hpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "expect_bits.hpp"
#include "harness/replicate.hpp"
#include "parallel/thread_pool.hpp"

using namespace p2panon;
using namespace p2panon::harness;
using harness_test::expect_bits_eq;

namespace {

ScenarioConfig stress_config(std::uint64_t seed = 17) {
  ScenarioConfig cfg = paper_default_config(seed);
  cfg.overlay.node_count = 15;
  cfg.overlay.degree = 3;
  cfg.overlay.malicious_fraction = 0.2;  // exercise the adversarial branches
  cfg.pair_count = 6;
  cfg.connections_per_pair = 4;
  cfg.warmup = sim::minutes(20.0);
  cfg.pair_start_window = sim::minutes(20.0);
  return cfg;
}

ScenarioConfig faulty_stress_config(std::uint64_t seed = 23) {
  ScenarioConfig cfg = stress_config(seed);
  cfg.fault.link_loss = 0.05;
  cfg.fault.delay_jitter = 0.3;
  cfg.fault.crash_rate_per_hour = 4.0;
  cfg.fault.crash_recovery_mean = sim::minutes(10.0);
  cfg.fault.probe_false_negative = 0.1;
  cfg.async_setup.attempt_deadline = sim::minutes(3.0);
  cfg.data_phase.duration = 60.0;
  cfg.data_phase.keepalive_interval = 10.0;
  return cfg;
}

ScenarioConfig chaotic_settlement_config(std::uint64_t seed = 29) {
  ScenarioConfig cfg = faulty_stress_config(seed);
  cfg.fault.bank.claim_loss = 0.2;
  cfg.fault.bank.claim_delay_mean = sim::minutes(4.0);
  cfg.fault.bank.initiator_crash = 0.3;
  cfg.fault.bank.forwarder_crash = 0.15;
  cfg.fault.bank.claim_deadline = sim::minutes(20.0);
  cfg.fault.bank.close_after = sim::minutes(8.0);
  return cfg;
}

ReplicatedResult run_with_pool_size(std::size_t threads, std::size_t replicates) {
  parallel::ThreadPool pool(threads);
  return run_replicated(stress_config(), replicates, &pool);
}

}  // namespace

TEST(Determinism, BitwiseIdenticalAcrossPoolSizes) {
  constexpr std::size_t kReplicates = 5;
  const ReplicatedResult serial = run_replicated(stress_config(), kReplicates, nullptr);

  // The issue-mandated matrix: 1, 2, and hardware_concurrency workers.
  std::vector<std::size_t> pool_sizes{1, 2,
      std::max<std::size_t>(1, std::thread::hardware_concurrency())};
  for (std::size_t threads : pool_sizes) {
    SCOPED_TRACE("pool size " + std::to_string(threads));
    expect_bits_eq(serial, run_with_pool_size(threads, kReplicates));
  }
}

TEST(Determinism, RepeatedParallelRunsAgree) {
  // Two runs on the *same* pool size must also agree: catches any residual
  // state leaking between batches through the pool itself.
  const ReplicatedResult a = run_with_pool_size(2, 4);
  const ReplicatedResult b = run_with_pool_size(2, 4);
  expect_bits_eq(a, b);
}

TEST(Determinism, FullScenarioRaceStress) {
  // The TSan payload: more replicates than workers so the queue stays hot,
  // each replicate a full simulate-settle-aggregate cycle touching every
  // subsystem (overlay, probing, history, decision caches, bank). Any write
  // actually shared across replicate threads is both a TSan report and,
  // almost always, a bitwise divergence in the sibling tests above.
  parallel::ThreadPool pool(4);
  const ReplicatedResult r = run_replicated(stress_config(), 8, &pool);
  EXPECT_EQ(r.replicates, 8u);
  EXPECT_TRUE(r.all_payments_conserved);
  EXPECT_GT(r.connection_latency.mean(), 0.0);
}

TEST(Determinism, FaultKnobsOffAreBitwiseInert) {
  // Tuning the async-setup and data-phase knobs must not move a single bit
  // while the fault config itself stays all-off: the scenario must take the
  // original synchronous path and never consult those knobs.
  const ReplicatedResult baseline = run_replicated(stress_config(), 3, nullptr);

  ScenarioConfig tweaked = stress_config();
  ASSERT_FALSE(tweaked.fault.enabled());
  tweaked.async_setup.attempt_deadline = sim::minutes(1.0);
  tweaked.data_phase.duration = 5.0;
  tweaked.data_phase.keepalive_interval = 1.0;
  expect_bits_eq(baseline, run_replicated(tweaked, 3, nullptr));
}

TEST(Determinism, FaultModeBitwiseIdenticalAcrossPoolSizes) {
  // The fault-mode machinery (injector streams, async setup, keepalive
  // layer) must honour the same pool-invisibility contract as the
  // synchronous path.
  const ReplicatedResult serial = run_replicated(faulty_stress_config(), 4, nullptr);
  EXPECT_GT(serial.total_crashes, 0u) << "config must actually exercise fault mode";
  EXPECT_GT(serial.total_keepalives_sent, 0u);

  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE("pool size " + std::to_string(threads));
    parallel::ThreadPool pool(threads);
    expect_bits_eq(serial, run_replicated(faulty_stress_config(), 4, &pool));
  }
}

TEST(Determinism, BankFaultKnobsOffAreBitwiseInert) {
  // The lifecycle's *tuning* knobs (deadline, close delay, claim spread) are
  // only consulted once some bank fault (or lifecycle=true) switches the
  // settlement phase on; with the bank plane all-off they must not move a
  // bit — message-fault mode or not.
  const ReplicatedResult baseline = run_replicated(faulty_stress_config(), 3, nullptr);

  ScenarioConfig tweaked = faulty_stress_config();
  ASSERT_FALSE(tweaked.fault.bank.enabled());
  tweaked.fault.bank.claim_deadline = sim::minutes(2.0);
  tweaked.fault.bank.close_after = sim::minutes(1.0);
  tweaked.fault.bank.claim_spread = sim::minutes(0.5);
  expect_bits_eq(baseline, run_replicated(tweaked, 3, nullptr));
}

TEST(Determinism, BankFaultModeBitwiseIdenticalAcrossPoolSizes) {
  // The settlement lifecycle (event-driven claims, crashes, deadline sweep,
  // audit reconciliation) must honour the same pool-invisibility contract.
  const ReplicatedResult serial = run_replicated(chaotic_settlement_config(), 4, nullptr);
  EXPECT_GT(serial.total_settlements_closed + serial.total_settlements_abandoned +
                serial.total_settlements_expired,
            0u);
  EXPECT_GT(serial.total_claims_lost, 0u) << "config must actually lose claims";
  EXPECT_TRUE(serial.all_settlements_reconciled);
  EXPECT_TRUE(serial.all_payments_conserved);

  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE("pool size " + std::to_string(threads));
    parallel::ThreadPool pool(threads);
    expect_bits_eq(serial, run_replicated(chaotic_settlement_config(), 4, &pool));
  }
}

TEST(Determinism, CleanLifecycleSettlesEverythingClosed) {
  // lifecycle=true with every fault probability at zero: the event-driven
  // phase runs, but every claim arrives and every initiator closes — all
  // settlements must end Closed with nothing lost, abandoned, or expired.
  ScenarioConfig cfg = stress_config();
  cfg.fault.bank.lifecycle = true;
  const ReplicatedResult r = run_replicated(cfg, 3, nullptr);
  EXPECT_EQ(r.total_settlements_closed, 3u * cfg.pair_count);
  EXPECT_EQ(r.total_settlements_abandoned, 0u);
  EXPECT_EQ(r.total_settlements_expired, 0u);
  EXPECT_EQ(r.total_claims_lost, 0u);
  EXPECT_EQ(r.total_claims_after_terminal, 0u);
  EXPECT_TRUE(r.all_settlements_reconciled);
  EXPECT_TRUE(r.all_payments_conserved);
  EXPECT_EQ(r.total_settlement_escrow_milli,
            r.total_settlement_paid_milli + r.total_settlement_refunded_milli);
}
