#include "core/reputation.hpp"

#include "core/incentive.hpp"

#include <gtest/gtest.h>

#include "fixtures.hpp"

using namespace p2panon;
using namespace p2panon::core;
using net::NodeId;

TEST(ReputationSystem, StartsAtInitialScore) {
  ReputationSystem rep(10, ReputationConfig{});
  for (NodeId a = 0; a < 10; ++a) {
    for (NodeId b = 0; b < 10; ++b) {
      EXPECT_DOUBLE_EQ(rep.score(a, b), 0.5);
    }
  }
}

TEST(ReputationSystem, SuccessRaisesFailureLowers) {
  ReputationSystem rep(5, ReputationConfig{});
  rep.report_success(0, 1);
  EXPECT_DOUBLE_EQ(rep.score(0, 1), 0.52);
  rep.report_failure(0, 1);
  EXPECT_DOUBLE_EQ(rep.score(0, 1), 0.42);
}

TEST(ReputationSystem, ScoresClampToUnitInterval) {
  ReputationSystem rep(3, ReputationConfig{});
  for (int i = 0; i < 100; ++i) rep.report_success(0, 1);
  EXPECT_DOUBLE_EQ(rep.score(0, 1), 1.0);
  for (int i = 0; i < 100; ++i) rep.report_failure(0, 1);
  EXPECT_DOUBLE_EQ(rep.score(0, 1), 0.0);
}

TEST(ReputationSystem, GlobalScopeSharesScores) {
  ReputationConfig cfg;
  cfg.global_scope = true;
  ReputationSystem rep(5, cfg);
  rep.report_success(0, 3);
  EXPECT_GT(rep.score(4, 3), 0.5);  // someone else's observation visible
}

TEST(ReputationSystem, LocalScopeIsolatesObservers) {
  ReputationConfig cfg;
  cfg.global_scope = false;
  ReputationSystem rep(5, cfg);
  rep.report_success(0, 3);
  EXPECT_GT(rep.score(0, 3), 0.5);
  EXPECT_DOUBLE_EQ(rep.score(4, 3), 0.5);  // unaffected
}

TEST(ReputationSystem, CollusionInflatesGlobalScores) {
  // The paper's §4 critique: colluders can pump each other's reputation.
  ReputationConfig cfg;
  cfg.global_scope = true;
  ReputationSystem rep(10, cfg);
  const std::vector<NodeId> coalition{7, 8, 9};
  rep.apply_collusion(coalition, /*reports=*/20);
  for (NodeId c : coalition) {
    EXPECT_DOUBLE_EQ(rep.score(0, c), 1.0) << "colluder " << c << " not inflated";
  }
  EXPECT_DOUBLE_EQ(rep.score(0, 0), 0.5);  // honest nodes unchanged
}

TEST(ReputationSystem, CollusionHarmlessInLocalScope) {
  ReputationConfig cfg;
  cfg.global_scope = false;
  ReputationSystem rep(10, cfg);
  const std::vector<NodeId> coalition{7, 8, 9};
  rep.apply_collusion(coalition, 20);
  // Honest observers' views are untouched.
  EXPECT_DOUBLE_EQ(rep.score(0, 7), 0.5);
}

TEST(ReputationSystem, ObservePathReportsAdjacentSuccesses) {
  ReputationSystem rep(6, ReputationConfig{});
  const std::vector<NodeId> path{0, 1, 2, 3, 5};  // forwarders 1, 2, 3
  rep.observe_path(path);
  EXPECT_GT(rep.score(0, 1), 0.5);
  EXPECT_GT(rep.score(1, 2), 0.5);
  EXPECT_GT(rep.score(2, 3), 0.5);
}

TEST(ReputationSystem, ObservePathStopsAtDrop) {
  ReputationSystem rep(6, ReputationConfig{});
  const std::vector<NodeId> path{0, 1, 2, 3, 5};
  rep.observe_path(path, /*dropped_at=*/2);  // node 2 dropped the payload
  EXPECT_GT(rep.score(0, 1), 0.5);  // node 1 forwarded fine
  EXPECT_LT(rep.score(1, 2), 0.5);  // dropper penalised
  EXPECT_DOUBLE_EQ(rep.score(2, 3), 0.5);  // downstream unobserved
}

TEST(ReputationRouting, PicksHighestScoredCandidate) {
  p2ptest::StableWorld world(31);
  world.warmup();
  ReputationSystem rep(world.overlay.size(), ReputationConfig{});
  const auto candidates = world.overlay.online_neighbors(0);
  ASSERT_GE(candidates.size(), 2u);
  const NodeId favoured = candidates[1];
  for (int i = 0; i < 10; ++i) rep.report_success(0, favoured);

  ReputationRouting routing(rep);
  DecisionResources resources;
  RoutingContext ctx{world.overlay.state(), world.overlay.links(), world.quality, Contract{}, 1, 1,
                     19, resources};
  auto stream = world.root.child("rep");
  const HopChoice c = routing.choose(ctx, 0, net::kInvalidNode, candidates, stream);
  EXPECT_EQ(c.next, favoured);
  EXPECT_EQ(routing.name(), "reputation");
}

TEST(ReputationRouting, CollusionAttractsPaths) {
  // End-to-end: with global reputation and a pumped coalition, paths route
  // through colluders far more than their population share.
  p2ptest::StableWorld world(32, /*malicious=*/0.0, /*nodes=*/25, /*degree=*/6);
  world.warmup();
  ReputationSystem rep(world.overlay.size(), ReputationConfig{});
  // Coalition placed adjacent to the initiator so reachability does not
  // depend on tie-breaking through the rest of the graph.
  const auto nbs = world.overlay.neighbors(0);
  std::vector<NodeId> coalition(nbs.begin(), nbs.begin() + 3);
  rep.apply_collusion(coalition, 30);

  ReputationRouting routing(rep);
  StrategyAssignment assign(world.overlay, routing);
  PathBuilder builder(world.overlay, world.quality);
  PayoffLedger ledger(world.overlay.size());

  std::size_t coalition_instances = 0, total_instances = 0;
  ConnectionSetSession session(1, 0, 24, Contract{});
  auto stream = world.root.child("collude");
  for (std::uint32_t k = 0; k < 20; ++k) {
    const BuiltPath& p =
        session.run_connection(builder, world.history, assign, ledger, world.overlay, stream);
    for (std::size_t i = 1; i + 1 < p.nodes.size(); ++i) {
      ++total_instances;
      for (NodeId c : coalition) {
        if (p.nodes[i] == c) ++coalition_instances;
      }
    }
  }
  if (total_instances < 10) GTEST_SKIP() << "too few instances to judge";
  const double share =
      static_cast<double>(coalition_instances) / static_cast<double>(total_instances);
  // Population share is 3/25 = 12%; pumped reputation should far exceed it
  // whenever a colluder is reachable.
  EXPECT_GT(share, 0.2);
}
