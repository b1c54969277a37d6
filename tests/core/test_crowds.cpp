#include "core/crowds.hpp"

#include <gtest/gtest.h>

#include <set>

#include "fixtures.hpp"

using namespace p2panon;
using namespace p2panon::core;
using net::NodeId;

namespace {

class CrowdsTest : public ::testing::Test {
 protected:
  void SetUp() override { world.warmup(); }

  std::unique_ptr<CrowdsSession> run(std::uint32_t k, StrategyKind kind = StrategyKind::kRandom,
                                     const char* tag = "crowds") {
    auto session = std::make_unique<CrowdsSession>(kPair, kInitiator, kResponder, Contract{});
    const auto strategy = make_strategy(kind);
    StrategyAssignment assign(world.overlay, *strategy);
    PathBuilder builder(world.overlay, world.quality);
    auto stream = world.root.child(tag);
    for (std::uint32_t j = 0; j < k; ++j) {
      session->run_connection(builder, world.history, assign, ledger, world.overlay, stream);
    }
    return session;
  }

  static constexpr net::PairId kPair = 3;
  static constexpr NodeId kInitiator = 0;
  static constexpr NodeId kResponder = 19;
  p2ptest::StableWorld world{21};
  core::PayoffLedger ledger{20};
};

}  // namespace

TEST_F(CrowdsTest, StablePathReusedWithoutChurn) {
  // The StableWorld has ~100h sessions: the static path never dies, so a
  // session of 15 connections performs exactly one formation.
  auto session = run(15);
  EXPECT_EQ(session->set().connections_run(), 15u);
  EXPECT_EQ(session->reformations(), 0u);
  // Forwarder set == the distinct nodes of the single path (one node may
  // occupy several positions, so distinct <= positions).
  std::set<NodeId> distinct(session->current_path().nodes.begin() + 1,
                            session->current_path().nodes.end() - 1);
  EXPECT_EQ(session->set().forwarder_set().size(), distinct.size());
  EXPECT_LE(distinct.size(), session->current_path().forwarder_count());
}

TEST_F(CrowdsTest, PathQualityMaximalWhenStable) {
  // With one static path, L equals the path's position count and ||pi|| its
  // distinct-node count, so Q(pi) = positions / distinct >= 1 — the best any
  // routing can do for a fixed L.
  auto session = run(10);
  if (session->set().forwarder_set().empty()) GTEST_SKIP() << "degenerate direct path";
  EXPECT_GE(session->set().path_quality(), 1.0 - 1e-9);
}

TEST_F(CrowdsTest, HistoryRecordedEveryConnection) {
  auto session = run(5);
  const BuiltPath& p = session->current_path();
  if (p.forwarder_count() == 0) GTEST_SKIP() << "direct path";
  const NodeId f1 = p.nodes[1];
  EXPECT_EQ(world.history.at(f1).count(kPair, p.nodes[0], p.nodes[2]), 5u);
}

TEST_F(CrowdsTest, CostsChargedPerConnectionNotPerFormation) {
  auto session = run(8);
  const BuiltPath& p = session->current_path();
  if (p.forwarder_count() == 0) GTEST_SKIP() << "direct path";
  // 8 connections x (positions the node occupies on the static path).
  const NodeId f1 = p.nodes[1];
  std::size_t positions = 0;
  for (std::size_t i = 1; i + 1 < p.nodes.size(); ++i) {
    if (p.nodes[i] == f1) ++positions;
  }
  EXPECT_EQ(ledger.at(f1).forwarding_instances, 8u * positions);
}

TEST(CrowdsChurn, ReformationsUnderChurn) {
  // Real churn: forwarders leave mid-session, forcing reformations and a
  // growing forwarder set — the paper's core problem statement.
  sim::rng::Stream root(5);
  sim::Simulator simulator;
  net::OverlayConfig cfg;
  cfg.node_count = 30;
  cfg.degree = 5;
  cfg.churn.session_median = sim::minutes(20.0);  // heavy churn
  cfg.churn.session_min = sim::minutes(5.0);
  net::Overlay overlay(cfg, simulator, root.child("overlay"));
  net::ProbingEstimator probing(overlay, net::ProbingConfig{}, root.child("probing"));
  core::HistoryStore history(overlay.size());
  core::EdgeQualityEvaluator quality(probing, history, core::QualityWeights{});
  core::PathBuilder builder(overlay, quality);
  core::PayoffLedger ledger(overlay.size());
  core::RandomRouting strategy;
  core::StrategyAssignment assign(overlay, strategy);

  overlay.start();
  simulator.run_until(sim::minutes(60.0));

  core::CrowdsSession session(1, 0, 29, core::Contract{});
  auto stream = root.child("run");
  for (std::uint32_t k = 0; k < 30; ++k) {
    simulator.run_until(simulator.now() + sim::minutes(10.0));
    overlay.force_online(0);
    overlay.force_online(29);
    session.run_connection(builder, history, assign, ledger, overlay, stream);
  }
  EXPECT_GT(session.reformations(), 0u);
  // Each reformation can only grow Q, so quality drops below the stable 1.0.
  EXPECT_LT(session.set().path_quality(), 1.0);
  EXPECT_GE(session.set().forwarder_set().size(), session.current_path().forwarder_count());
}

TEST(CrowdsChurn, UtilityFormationShrinksForwarderSetVsRandom) {
  // Even with static paths, forming each new path via utility routing reuses
  // prior forwarders (history) and so grows Q slower than random formation.
  auto run_with = [](core::StrategyKind kind, std::uint64_t seed) {
    sim::rng::Stream root(seed);
    sim::Simulator simulator;
    net::OverlayConfig cfg;
    cfg.node_count = 30;
    cfg.degree = 5;
    cfg.churn.session_median = sim::minutes(20.0);
    cfg.churn.session_min = sim::minutes(5.0);
    net::Overlay overlay(cfg, simulator, root.child("overlay"));
    net::ProbingEstimator probing(overlay, net::ProbingConfig{}, root.child("probing"));
    core::HistoryStore history(overlay.size());
    core::EdgeQualityEvaluator quality(probing, history, core::QualityWeights{});
    core::PathBuilder builder(overlay, quality);
    core::PayoffLedger ledger(overlay.size());
    const auto strategy = core::make_strategy(kind);
    core::StrategyAssignment assign(overlay, *strategy);
    overlay.start();
    simulator.run_until(sim::minutes(60.0));
    core::CrowdsSession session(1, 0, 29, core::Contract{});
    auto stream = root.child("run");
    for (std::uint32_t k = 0; k < 30; ++k) {
      simulator.run_until(simulator.now() + sim::minutes(10.0));
      overlay.force_online(0);
      overlay.force_online(29);
      session.run_connection(builder, history, assign, ledger, overlay, stream);
    }
    return session.set().forwarder_set().size();
  };
  std::size_t random_total = 0, utility_total = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    random_total += run_with(core::StrategyKind::kRandom, seed);
    utility_total += run_with(core::StrategyKind::kUtilityModelI, seed);
  }
  EXPECT_LT(utility_total, random_total);
}
