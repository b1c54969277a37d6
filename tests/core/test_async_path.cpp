#include "core/async_path.hpp"

#include <gtest/gtest.h>

#include "fixtures.hpp"
#include "transport/sim_transport.hpp"

using namespace p2panon;
using namespace p2panon::core;
using net::NodeId;

namespace {

class AsyncPathTest : public ::testing::Test {
 protected:
  void SetUp() override { world.warmup(); }

  AsyncResult establish_one(std::uint32_t conn = 1, AsyncConfig cfg = {}) {
    PathBuilder builder(world.overlay, world.quality);
    transport::SimTransport transport(world.simulator, world.overlay);
    AsyncConnectionRunner runner(world.simulator, world.overlay, builder, transport, cfg);
    UtilityModelIRouting strategy;
    StrategyAssignment assign(world.overlay, strategy);
    AsyncResult captured;
    bool done = false;
    runner.establish(1, conn, 0, 19, Contract{}, assign, world.root.child("async", conn),
                     [&](const AsyncResult& r) {
                       captured = r;
                       done = true;
                     });
    world.simulator.run_until(world.simulator.now() + sim::hours(1.0));
    EXPECT_TRUE(done) << "establishment never completed";
    return captured;
  }

  p2ptest::StableWorld world{61};
};

}  // namespace

TEST_F(AsyncPathTest, StableWorldEstablishesFirstAttempt) {
  const AsyncResult r = establish_one();
  EXPECT_TRUE(r.established);
  EXPECT_EQ(r.attempts, 1u);
  ASSERT_GE(r.path.nodes.size(), 2u);
  EXPECT_EQ(r.path.nodes.front(), 0u);
  EXPECT_EQ(r.path.nodes.back(), 19u);
}

TEST_F(AsyncPathTest, SetupTimeIsRoundTripLatency) {
  const AsyncResult r = establish_one(2);
  ASSERT_TRUE(r.established);
  // Forward propagation + reverse confirmation over the same links.
  const double one_way = world.overlay.links().path_latency(r.path.nodes);
  EXPECT_NEAR(r.setup_time, 2.0 * one_way, 1e-9);
}

TEST_F(AsyncPathTest, PathStructureMatchesBuilderInvariants) {
  const AsyncResult r = establish_one(3);
  ASSERT_TRUE(r.established);
  EXPECT_EQ(r.path.edge_qualities.size(), r.path.nodes.size() - 1);
  EXPECT_DOUBLE_EQ(r.path.edge_qualities.back(), 1.0);
  for (std::size_t i = 0; i + 2 < r.path.nodes.size(); ++i) {
    const auto nbs = world.overlay.neighbors(r.path.nodes[i]);
    EXPECT_TRUE(std::find(nbs.begin(), nbs.end(), r.path.nodes[i + 1]) != nbs.end());
  }
}

TEST_F(AsyncPathTest, CallbackFiresExactlyOnce) {
  PathBuilder builder(world.overlay, world.quality);
  transport::SimTransport transport(world.simulator, world.overlay);
  AsyncConnectionRunner runner(world.simulator, world.overlay, builder, transport);
  UtilityModelIRouting strategy;
  StrategyAssignment assign(world.overlay, strategy);
  int fired = 0;
  runner.establish(1, 9, 0, 19, Contract{}, assign, world.root.child("once"),
                   [&](const AsyncResult&) { ++fired; });
  world.simulator.run_until(world.simulator.now() + sim::hours(2.0));
  EXPECT_EQ(fired, 1);
}

TEST(AsyncPathChurn, ReformationsHappenUnderHeavyChurn) {
  // Violent churn: sessions of a few minutes, so formations frequently lose
  // a holder mid-flight. Slow links stretch the formation window.
  sim::rng::Stream root(8);
  sim::Simulator simulator;
  net::OverlayConfig cfg;
  cfg.node_count = 30;
  cfg.degree = 5;
  cfg.churn.session_min = sim::minutes(1.0);
  cfg.churn.session_median = sim::minutes(3.0);
  cfg.churn.session_max = sim::minutes(30.0);
  cfg.churn.offline_gap_mean = sim::minutes(2.0);
  cfg.churn.departure_probability = 0.0;
  cfg.link.propagation_delay = 20.0;  // slow links: setup spans churn events
  net::Overlay overlay(cfg, simulator, root.child("overlay"));
  net::ProbingEstimator probing(overlay, net::ProbingConfig{}, root.child("probing"));
  core::HistoryStore history(overlay.size());
  core::EdgeQualityEvaluator quality(probing, history, core::QualityWeights{});
  core::PathBuilder builder(overlay, quality);
  transport::SimTransport transport(simulator, overlay);
  core::AsyncConnectionRunner runner(simulator, overlay, builder, transport);
  core::RandomRouting strategy;
  core::StrategyAssignment assign(overlay, strategy);

  overlay.start();
  simulator.run_until(sim::minutes(30.0));

  std::uint32_t total_attempts = 0;
  int completed = 0;
  for (std::uint32_t c = 1; c <= 25; ++c) {
    overlay.force_online(0);
    overlay.force_online(29);
    bool done = false;
    core::AsyncResult out;
    runner.establish(1, c, 0, 29, core::Contract{}, assign, root.child("est", c),
                     [&](const core::AsyncResult& r) {
                       out = r;
                       done = true;
                     });
    // Worst case is bounded (16 attempts with capped jittered backoff) but
    // can exceed one window on slow links; drive until resolution.
    for (int windows = 0; windows < 8 && !done; ++windows) {
      simulator.run_until(simulator.now() + sim::minutes(30.0));
    }
    ASSERT_TRUE(done) << "connection " << c << " never resolved";
    total_attempts += out.attempts;
    completed += out.established ? 1 : 0;
  }
  EXPECT_GT(completed, 0);
  EXPECT_GT(total_attempts, 25u) << "heavy churn should force at least some reformations";
}

TEST(AsyncPathChurn, ExhaustedAttemptsReportFailure) {
  // A world where everyone except the endpoints is permanently offline and
  // links are so slow the endpoints churn out mid-attempt is hard to build
  // deterministically; instead bound each attempt by a 3-minute deadline
  // under violent churn and slow links. A path of two or more hops needs at
  // least four minutes for setup and confirmation, so only a rare direct hop
  // can succeed, and establishments that use up every attempt must report
  // failure as such.
  sim::rng::Stream root(9);
  sim::Simulator simulator;
  net::OverlayConfig cfg;
  cfg.node_count = 20;
  cfg.degree = 4;
  cfg.churn.session_min = sim::minutes(1.0);
  cfg.churn.session_median = sim::minutes(2.0);
  cfg.churn.session_max = sim::minutes(10.0);
  cfg.churn.offline_gap_mean = sim::minutes(5.0);
  cfg.link.propagation_delay = 60.0;  // one hop takes a minute
  net::Overlay overlay(cfg, simulator, root.child("overlay"));
  net::ProbingEstimator probing(overlay, net::ProbingConfig{}, root.child("probing"));
  core::HistoryStore history(overlay.size());
  core::EdgeQualityEvaluator quality(probing, history, core::QualityWeights{});
  core::PathBuilder builder(overlay, quality);
  core::AsyncConfig acfg;
  acfg.attempt_deadline = sim::minutes(3.0);
  transport::SimTransport transport(simulator, overlay);
  core::AsyncConnectionRunner runner(simulator, overlay, builder, transport, acfg);
  core::RandomRouting strategy;
  core::StrategyAssignment assign(overlay, strategy);

  overlay.start();
  simulator.run_until(sim::minutes(30.0));

  int failures = 0, resolved = 0;
  for (std::uint32_t c = 1; c <= 20; ++c) {
    overlay.force_online(0);
    overlay.force_online(19);
    runner.establish(1, c, 0, 19, core::Contract{}, assign, root.child("est", c),
                     [&](const core::AsyncResult& r) {
                       ++resolved;
                       if (!r.established) {
                         ++failures;
                         EXPECT_EQ(r.attempts, core::kMaxSetupAttempts);
                       }
                     });
    simulator.run_until(simulator.now() + sim::minutes(20.0));
  }
  simulator.run_until(simulator.now() + sim::hours(1.0));  // drain stragglers
  EXPECT_EQ(resolved, 20);
  EXPECT_GT(failures, 0) << "minute-long hops under 2-minute sessions must fail sometimes";
}
