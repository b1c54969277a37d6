// Sharded scale-scenario contracts (src/harness/sharded_scenario.*):
// K = 1 reproduces the serial oracle digest bitwise, fixed {seed, K, window}
// is deterministic across thread-pool sizes, per-shard counters sum to the
// totals, and the claim ledger conserves (every forwarded hop settles).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>

#include "harness/sharded_scenario.hpp"
#include "parallel/thread_pool.hpp"

using namespace p2panon;
using namespace p2panon::harness;

namespace {

ShardedScenarioConfig small_config(std::uint64_t seed = 41) {
  ShardedScenarioConfig cfg;
  cfg.seed = seed;
  cfg.node_count = 240;
  cfg.degree = 6;
  cfg.shard_count = 4;
  cfg.window = 30.0;
  cfg.duration = sim::minutes(40.0);
  cfg.join_window = sim::minutes(5.0);
  cfg.session_mean = sim::minutes(25.0);
  cfg.offline_gap_mean = sim::minutes(10.0);
  cfg.connection_interval_mean = sim::minutes(1.5);
  return cfg;
}

void expect_same_model(const ShardedScenarioResult& a, const ShardedScenarioResult& b) {
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.connections_launched, b.connections_launched);
  EXPECT_EQ(a.connections_acked, b.connections_acked);
  EXPECT_EQ(a.ack_timeouts, b.ack_timeouts);
  EXPECT_EQ(a.no_candidate, b.no_candidate);
  EXPECT_EQ(a.hops_forwarded, b.hops_forwarded);
  EXPECT_EQ(a.churn_events, b.churn_events);
  EXPECT_EQ(a.departures, b.departures);
  EXPECT_EQ(a.claims_settled, b.claims_settled);
  EXPECT_EQ(a.probes, b.probes);
}

}  // namespace

TEST(ShardedScenario, SingleShardMatchesSerialOracleBitwise) {
  // The whole point of the windowed drive: at K = 1 it is the *same
  // computation* as the plain serial Simulator, digest for digest — not
  // "statistically close", identical.
  ShardedScenarioConfig cfg = small_config();
  cfg.shard_count = 1;

  const ShardedScenarioResult oracle = run_serial_oracle(cfg);
  const ShardedScenarioResult sharded = run_sharded_scenario(cfg, nullptr);

  expect_same_model(oracle, sharded);
  EXPECT_NE(oracle.digest, 0u);
  // The sanity floor: the workload actually exercised every subsystem.
  EXPECT_GT(oracle.connections_acked, 0u);
  EXPECT_GT(oracle.churn_events, 0u);
  EXPECT_GT(oracle.probes, 0u);
  // K = 1: nothing ever crosses a shard boundary, but the windowed drive
  // still barriers (the oracle, driven without windows, never does).
  EXPECT_EQ(sharded.cross_shard_messages, 0u);
  EXPECT_GT(sharded.window_barriers, 0u);
  EXPECT_EQ(oracle.cross_shard_messages, 0u);
  EXPECT_EQ(oracle.window_barriers, 0u);
}

TEST(ShardedScenario, FixedSeedShardCountWindowIsDeterministicAcrossPools) {
  const ShardedScenarioConfig cfg = small_config();
  const ShardedScenarioResult serial = run_sharded_scenario(cfg, nullptr);
  EXPECT_GT(serial.cross_shard_messages, 0u) << "K = 4 must actually route cross-shard";

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE("pool size " + std::to_string(threads));
    parallel::ThreadPool pool(threads);
    const ShardedScenarioResult r = run_sharded_scenario(cfg, &pool);
    expect_same_model(serial, r);
    // Engine counters are deterministic too for fixed {seed, K, window}.
    EXPECT_EQ(serial.cross_shard_messages, r.cross_shard_messages);
    EXPECT_EQ(serial.window_barriers, r.window_barriers);
    EXPECT_EQ(serial.settlement_batches, r.settlement_batches);
    EXPECT_EQ(serial.engine.scheduled, r.engine.scheduled);
    EXPECT_EQ(serial.engine.cancelled, r.engine.cancelled);
    EXPECT_EQ(serial.engine.fired, r.engine.fired);
  }
}

TEST(ShardedScenario, DifferentSeedsDiverge) {
  const ShardedScenarioResult a = run_sharded_scenario(small_config(41), nullptr);
  const ShardedScenarioResult b = run_sharded_scenario(small_config(42), nullptr);
  EXPECT_NE(a.digest, b.digest);
}

TEST(ShardedScenario, PerShardCountersSumToTotals) {
  const ShardedScenarioConfig cfg = small_config();
  const ShardedScenarioResult r = run_sharded_scenario(cfg, nullptr);
  ASSERT_EQ(r.per_shard.size(), cfg.shard_count);

  ShardCounters sum;
  for (const ShardCounters& s : r.per_shard) {
    sum.connections_launched += s.connections_launched;
    sum.connections_acked += s.connections_acked;
    sum.ack_timeouts += s.ack_timeouts;
    sum.no_candidate += s.no_candidate;
    sum.hops_forwarded += s.hops_forwarded;
    sum.churn_events += s.churn_events;
    sum.departures += s.departures;
    sum.claims_pending += s.claims_pending;
    sum.claims_settled += s.claims_settled;
  }
  EXPECT_EQ(sum.connections_launched, r.connections_launched);
  EXPECT_EQ(sum.connections_acked, r.connections_acked);
  EXPECT_EQ(sum.ack_timeouts, r.ack_timeouts);
  EXPECT_EQ(sum.no_candidate, r.no_candidate);
  EXPECT_EQ(sum.hops_forwarded, r.hops_forwarded);
  EXPECT_EQ(sum.churn_events, r.churn_events);
  EXPECT_EQ(sum.departures, r.departures);
  EXPECT_EQ(sum.claims_settled, r.claims_settled);
}

TEST(ShardedScenario, ClaimLedgerConserves) {
  const ShardedScenarioResult r = run_sharded_scenario(small_config(), nullptr);
  // finish() drains residual claims: everything forwarded must settle, and
  // nothing can remain pending.
  EXPECT_EQ(r.claims_settled, r.hops_forwarded);
  std::uint64_t pending = 0;
  for (const ShardCounters& s : r.per_shard) pending += s.claims_pending;
  EXPECT_EQ(pending, 0u);
  EXPECT_GT(r.settlement_batches, 0u);
}

TEST(ShardedScenario, CancelHeavyRegime) {
  // The workload contract: acks normally beat the timer, so cancels dominate
  // timeouts — the slot-map event queue's target shape.
  const ShardedScenarioResult r = run_sharded_scenario(small_config(), nullptr);
  EXPECT_GT(r.connections_acked, r.ack_timeouts);
  EXPECT_GT(r.engine.cancelled, 0u);
  // Acked connection <=> a cancelled ack timer (plus any other cancels).
  EXPECT_GE(r.engine.cancelled, r.connections_acked);
}

TEST(ShardedScenario, DigestMatchesPin) {
  // Golden values: a refactor of the sharded runner, its probing or its
  // edge-quality views must reproduce these bit for bit. Re-record only for
  // an intended model change, and say why in the change log.
  struct Pin {
    std::uint32_t shards;
    std::uint64_t digest;
    std::uint64_t probes;
    std::uint64_t connections_acked;
    std::uint64_t hops_forwarded;
  };
  for (const Pin& pin : {Pin{1, 5308691674978303665ULL, 1176, 4412, 13267},
                        Pin{4, 15397422980736446140ULL, 1176, 2046, 7768}}) {
    SCOPED_TRACE("K = " + std::to_string(pin.shards));
    ShardedScenarioConfig cfg = small_config();
    cfg.shard_count = pin.shards;
    const ShardedScenarioResult r = run_sharded_scenario(cfg, nullptr);
    EXPECT_EQ(r.digest, pin.digest);
    EXPECT_EQ(r.probes, pin.probes);
    EXPECT_EQ(r.connections_acked, pin.connections_acked);
    EXPECT_EQ(r.hops_forwarded, pin.hops_forwarded);
  }
}
