// Sharded full-paper-scenario contracts (src/harness/paper_sharded.*):
// engine_shards = 1 keeps the serial path untouched (bitwise, digest zero),
// K > 1 runs are bitwise deterministic across thread-pool sizes AND across
// window lengths dividing the view-refresh interval, and a K = 4 run with
// bank faults terminalises every settlement with exact conservation in
// every bank partition and globally. Knobs the K > 1 runner does not
// implement are refused rather than silently ignored.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "config_walk.hpp"
#include "harness/paper_sharded.hpp"
#include "harness/scenario.hpp"
#include "parallel/thread_pool.hpp"

using namespace p2panon;
using namespace p2panon::harness;

namespace {

/// Paper shape shrunk for test wall-clock: same knobs, fewer pairs.
ScenarioConfig small_config(std::uint64_t seed = 5) {
  ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.overlay.node_count = 24;
  cfg.overlay.degree = 4;
  cfg.pair_count = 12;
  cfg.connections_per_pair = 5;
  cfg.warmup = sim::minutes(10.0);
  cfg.pair_start_window = sim::minutes(20.0);
  cfg.connection_interval_mean = sim::minutes(2.0);
  cfg.engine_window = 60.0;
  cfg.view_refresh = 300.0;
  return cfg;
}

void expect_same_run(const ScenarioResult& a, const ScenarioResult& b) {
  EXPECT_EQ(a.sharded_digest, b.sharded_digest);
  EXPECT_EQ(a.churn_events, b.churn_events);
  EXPECT_EQ(a.probes, b.probes);
  EXPECT_EQ(a.connections_completed, b.connections_completed);
  EXPECT_EQ(a.connections_failed, b.connections_failed);
  EXPECT_EQ(a.settlements_closed, b.settlements_closed);
  EXPECT_EQ(a.settlements_abandoned, b.settlements_abandoned);
  EXPECT_EQ(a.settlements_expired, b.settlements_expired);
  EXPECT_EQ(a.claims_submitted, b.claims_submitted);
  EXPECT_EQ(a.claims_rejected, b.claims_rejected);
  EXPECT_EQ(a.settlement_escrow_milli, b.settlement_escrow_milli);
  EXPECT_EQ(a.settlement_paid_milli, b.settlement_paid_milli);
  EXPECT_EQ(a.settlement_refunded_milli, b.settlement_refunded_milli);
}

}  // namespace

TEST(PaperSharded, SerialPathUntouchedAtOneShard) {
  // engine_shards = 1 must not perturb the existing serial scenario:
  // bit-identical aggregates and a zero sharded digest.
  ScenarioConfig plain = paper_default_config(3);
  plain.pair_count = 6;
  plain.connections_per_pair = 4;
  ScenarioConfig routed = plain;
  routed.engine_shards = 1;

  const ScenarioResult a = ScenarioRunner(plain).run();
  const ScenarioResult b = ScenarioRunner(routed).run();
  EXPECT_EQ(a.sharded_digest, 0u);
  EXPECT_EQ(b.sharded_digest, 0u);
  EXPECT_EQ(a.connections_completed, b.connections_completed);
  EXPECT_EQ(a.total_paid_credits, b.total_paid_credits);
  EXPECT_EQ(a.churn_events, b.churn_events);
  EXPECT_EQ(a.engine_events_fired, b.engine_events_fired);
}

TEST(PaperSharded, RunnerRoutesAutomaticallyAboveOneShard) {
  ScenarioConfig cfg = small_config();
  cfg.engine_shards = 2;
  const ScenarioResult direct = run_paper_scenario_sharded(cfg, nullptr);
  const ScenarioResult routed = ScenarioRunner(cfg).run();
  EXPECT_NE(direct.sharded_digest, 0u);
  expect_same_run(direct, routed);
}

TEST(PaperSharded, ZeroConnectionsPerPairRunsWithoutTraffic) {
  // The zero-horizon shape benches time as setup: no warm-up, no
  // connections. The runner must build the world and finish cleanly.
  for (const std::uint32_t shards : {1u, 2u}) {
    ScenarioConfig cfg = small_config();
    cfg.engine_shards = shards;
    cfg.connections_per_pair = 0;
    cfg.warmup = 0.0;
    const ScenarioResult r = run_paper_scenario_sharded(cfg, nullptr);
    EXPECT_EQ(r.connections_completed, 0u) << "K=" << shards;
    EXPECT_EQ(r.settlements_closed, 0u) << "K=" << shards;
    EXPECT_TRUE(r.payment_conserved) << "K=" << shards;
  }
}

TEST(PaperSharded, DigestInvariantAcrossThreadPools) {
  for (const std::uint32_t shards : {2u, 4u}) {
    ScenarioConfig cfg = small_config();
    cfg.engine_shards = shards;

    const ScenarioResult serial = run_paper_scenario_sharded(cfg, nullptr);
    parallel::ThreadPool one(1);
    const ScenarioResult p1 = run_paper_scenario_sharded(cfg, &one);
    parallel::ThreadPool four(4);
    const ScenarioResult p4 = run_paper_scenario_sharded(cfg, &four);

    EXPECT_NE(serial.sharded_digest, 0u);
    expect_same_run(serial, p1);
    expect_same_run(serial, p4);
  }
}

TEST(PaperSharded, DigestInvariantAcrossWindowsDividingRefresh) {
  // Fixed view-refresh interval R = 300 s; any window dividing R refreshes
  // the merged views at the same absolute times, so the model's end state
  // is identical window for window.
  ScenarioConfig base = small_config();
  base.engine_shards = 4;
  base.view_refresh = 300.0;

  base.engine_window = 300.0;
  const ScenarioResult w300 = run_paper_scenario_sharded(base, nullptr);
  base.engine_window = 150.0;
  const ScenarioResult w150 = run_paper_scenario_sharded(base, nullptr);
  base.engine_window = 60.0;
  const ScenarioResult w60 = run_paper_scenario_sharded(base, nullptr);

  EXPECT_NE(w300.sharded_digest, 0u);
  expect_same_run(w300, w150);
  expect_same_run(w300, w60);
}

TEST(PaperSharded, DigestVariesWithSeed) {
  ScenarioConfig cfg = small_config(5);
  cfg.engine_shards = 2;
  const ScenarioResult a = run_paper_scenario_sharded(cfg, nullptr);
  cfg.seed = 6;
  const ScenarioResult b = run_paper_scenario_sharded(cfg, nullptr);
  EXPECT_NE(a.sharded_digest, b.sharded_digest);
}

TEST(PaperSharded, ConservesAndReconcilesAtFourShards) {
  ScenarioConfig cfg = small_config();
  cfg.engine_shards = 4;
  const ScenarioResult r = run_paper_scenario_sharded(cfg, nullptr);

  EXPECT_TRUE(r.payment_conserved);
  EXPECT_TRUE(r.settlement_reconciled);
  EXPECT_GT(r.connections_completed, 0u);
  EXPECT_GT(r.settlements_closed, 0u);
  EXPECT_GT(r.claims_submitted, 0u);
  EXPECT_EQ(r.claims_rejected, 0u);
  EXPECT_EQ(r.settlement_escrow_milli, r.settlement_paid_milli + r.settlement_refunded_milli);
  EXPECT_GT(r.engine_window_barriers, 0u);
  // Every event stays on its owner shard; settlement ops ride the barrier.
  EXPECT_EQ(r.engine_cross_shard_messages, 0u);
}

TEST(PaperSharded, FaultModeReconcilesAtFourShards) {
  // Link loss plus the full bank-fault plane: lost claims, crashed
  // initiators (deadline abandons/expires), crashed forwarders. Money must
  // still conserve exactly in every partition and globally.
  ScenarioConfig cfg = small_config(9);
  cfg.engine_shards = 4;
  cfg.bank_partitions = 3;  // deliberately != K
  cfg.fault.link_loss = 0.05;
  cfg.fault.bank.lifecycle = true;
  cfg.fault.bank.claim_loss = 0.2;
  cfg.fault.bank.initiator_crash = 0.3;
  cfg.fault.bank.forwarder_crash = 0.1;

  const ScenarioResult r = run_paper_scenario_sharded(cfg, nullptr);
  EXPECT_TRUE(r.payment_conserved);
  EXPECT_TRUE(r.settlement_reconciled);
  EXPECT_GT(r.settlements_closed + r.settlements_abandoned + r.settlements_expired, 0u);
  EXPECT_EQ(r.settlement_escrow_milli, r.settlement_paid_milli + r.settlement_refunded_milli);

  // Determinism holds under faults too.
  const ScenarioResult again = run_paper_scenario_sharded(cfg, nullptr);
  expect_same_run(r, again);
}

TEST(PaperSharded, OneProbeLoopPerNode) {
  // A node that rejoins before its pending probe tick fires must not start
  // a second probing loop: like the serial estimator, each node probes at
  // most once per period, so the run's probe count is bounded by N * T / P.
  ScenarioConfig cfg = small_config();
  cfg.engine_shards = 4;
  cfg.overlay.churn.offline_gap_mean = 5.0;  // far below the 300 s probe period
  cfg.overlay.churn.departure_probability = 0.0;
  const ScenarioResult r = run_paper_scenario_sharded(cfg, nullptr);

  const double bound =
      static_cast<double>(cfg.overlay.node_count) * r.sim_end_time / cfg.probing.period;
  EXPECT_GT(r.churn_events, 2 * cfg.overlay.node_count) << "nodes must rejoin";
  EXPECT_GT(r.probes, 0u);
  EXPECT_LE(static_cast<double>(r.probes), bound);
}

TEST(PaperSharded, DigestMatchesPin) {
  // Golden values at K = 4, in the paper shape and in the bank-fault shape.
  // A refactor of the runner's history, probing or settlement plumbing must
  // reproduce these bit for bit; re-record only for an intended model
  // change, and say why in the change log.
  ScenarioConfig paper = small_config();
  paper.engine_shards = 4;
  const ScenarioResult a = run_paper_scenario_sharded(paper, nullptr);
  EXPECT_EQ(a.sharded_digest, 18231694623268324532ULL);
  EXPECT_EQ(a.probes, 451u);
  EXPECT_EQ(a.settlement_paid_milli, 11270015);

  ScenarioConfig faults = small_config(9);
  faults.engine_shards = 4;
  faults.bank_partitions = 3;
  faults.fault.link_loss = 0.05;
  faults.fault.bank.lifecycle = true;
  faults.fault.bank.claim_loss = 0.2;
  faults.fault.bank.initiator_crash = 0.3;
  faults.fault.bank.forwarder_crash = 0.1;
  const ScenarioResult b = run_paper_scenario_sharded(faults, nullptr);
  EXPECT_EQ(b.sharded_digest, 8574711101939070798ULL);
  EXPECT_EQ(b.probes, 490u);
  EXPECT_EQ(b.settlement_paid_milli, 6957131);
  EXPECT_EQ(b.settlement_refunded_milli, 1744010);
}

TEST(PaperSharded, ModelFollowsStrategyAndF) {
  // The K > 1 runner forms paths with the serial runner's builder, so the
  // paper's Fig. 5 shape holds at K = 4 too (paper defaults, N = 40): random
  // routing spreads a pair's paths over more forwarders than Model I, and
  // adversaries, who route randomly, widen Model I's forwarder sets.
  const auto mean_set_size = [](core::StrategyKind strategy, double f) {
    metrics::Accumulator sizes;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      ScenarioConfig cfg = paper_default_config(seed);
      cfg.engine_shards = 4;
      cfg.good_strategy = strategy;
      cfg.overlay.malicious_fraction = f;
      sizes.add(run_paper_scenario_sharded(cfg, nullptr).forwarder_set_size.mean());
    }
    return sizes.mean();
  };
  const double model1 = mean_set_size(core::StrategyKind::kUtilityModelI, 0.0);
  EXPECT_GT(mean_set_size(core::StrategyKind::kRandom, 0.0), model1);
  EXPECT_GT(mean_set_size(core::StrategyKind::kUtilityModelI, 0.5), model1);
}

TEST(PaperSharded, RejectsUnimplementedKnobs) {
  // Every leaf of the field table, changed alone at K = 4: a kSerialOnly
  // leaf (a knob that changes K = 1 results but that the K > 1 runner never
  // reads) is refused under its own name, and every other leaf is accepted.
  const auto expect_refused = [](const ScenarioConfig& cfg, const std::string& refusal) {
    try {
      (void)run_paper_scenario_sharded(cfg, nullptr);
      ADD_FAILURE() << "the runner accepted " << refusal << " at K = " << cfg.engine_shards;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(e.what(), refusal);
    }
  };
  std::size_t refused = 0;
  for (std::size_t i = 0;; ++i) {
    ScenarioConfig cfg = small_config();
    cfg.engine_shards = 4;
    const auto leaf = harness_test::change_leaf(cfg, i);
    if (!leaf) break;
    SCOPED_TRACE(leaf->name);
    // validate() keeps the two quality weights on the simplex and the
    // session median reachable: the other weight or the median follows,
    // which reaches no refusal (all are kBoth leaves).
    if (leaf->name == "weights.w_selectivity") {
      cfg.weights.w_availability = 1.0 - cfg.weights.w_selectivity;
    } else if (leaf->name == "weights.w_availability") {
      cfg.weights.w_selectivity = 1.0 - cfg.weights.w_availability;
    } else if (leaf->name == "overlay.churn.session_min" ||
               leaf->name == "overlay.churn.session_max") {
      // Halving either bound puts the median on the ceiling of the medians
      // the session shape can reach, so the median (a kBoth leaf) follows.
      cfg.overlay.churn.session_median /= 2.0;
    }
    if (leaf->runners == Runners::kBoth) {
      EXPECT_EQ(cfg.validate(), "");
      continue;
    }
    ++refused;
    const std::string refusal =
        "the sharded paper runner does not implement ScenarioConfig::" + leaf->name;
    EXPECT_EQ(cfg.validate(), refusal);
    expect_refused(cfg, refusal);
    cfg.engine_shards = 1;  // the serial runner implements every knob
    EXPECT_EQ(cfg.validate(), "");
    expect_refused(cfg, refusal);  // a direct call to this runner still does not
  }
  // Each step of porting the paper model to this runner lowers the count.
  EXPECT_EQ(refused, 12u);
}

TEST(PaperSharded, RejectsFewerThanFourNodes) {
  // The K > 1 runner needs four nodes (PaperWorld asserts it). Three nodes
  // of degree 2 pass the range checks every runner shares, so validate()
  // must refuse them for this runner, by field name, before PaperWorld is
  // built; the serial runner still accepts them.
  ScenarioConfig cfg = small_config();
  cfg.overlay.node_count = 3;
  cfg.overlay.degree = 2;
  cfg.engine_shards = 2;
  const std::string refusal =
      "ScenarioConfig::overlay.node_count = 3 must be at least 4 for the sharded paper runner";
  EXPECT_EQ(cfg.validate(), refusal);
  try {
    (void)run_paper_scenario_sharded(cfg, nullptr);
    ADD_FAILURE() << "the runner accepted overlay.node_count = 3";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(e.what(), refusal);
  }
  cfg.overlay.node_count = 4;
  EXPECT_EQ(cfg.validate(), "");
  cfg.overlay.node_count = 3;
  cfg.engine_shards = 1;
  EXPECT_EQ(cfg.validate(), "");
}

TEST(PaperSharded, AcceptsImplementedConfigs) {
  // Paper defaults and both BENCH_full_scenario cell shapes
  // (scale_full_scenario cell_config); the tests above run their own
  // configs through this runner, which would refuse them.
  ScenarioConfig paper = paper_default_config(1);
  paper.engine_shards = 4;
  ScenarioConfig bench_paper = paper;
  bench_paper.overlay.node_count = 400;
  bench_paper.overlay.degree = 6;
  bench_paper.pair_count = 200;
  bench_paper.connections_per_pair = 4;
  bench_paper.warmup = sim::minutes(30.0);
  bench_paper.pair_start_window = sim::minutes(45.0);
  bench_paper.engine_window = 60.0;
  bench_paper.view_refresh = 300.0;
  ScenarioConfig bench_fault = bench_paper;
  bench_fault.fault.link_loss = 0.05;
  bench_fault.fault.bank.lifecycle = true;
  bench_fault.fault.bank.claim_loss = 0.1;
  bench_fault.fault.bank.initiator_crash = 0.2;
  bench_fault.fault.bank.forwarder_crash = 0.05;
  ScenarioConfig model2 = paper;  // the path builder's strategies and f
  model2.good_strategy = core::StrategyKind::kUtilityModelII;
  model2.overlay.malicious_fraction = 0.5;
  for (const ScenarioConfig* cfg : {&paper, &bench_paper, &bench_fault, &model2}) {
    EXPECT_EQ(cfg->validate(), "");
  }
}
