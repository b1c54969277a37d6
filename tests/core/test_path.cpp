#include "core/path.hpp"

#include <gtest/gtest.h>

#include <set>

#include "fixtures.hpp"

using namespace p2panon;
using namespace p2panon::core;
using net::NodeId;

namespace {

class PathTest : public ::testing::Test {
 protected:
  void SetUp() override { world.warmup(); }

  BuiltPath build(StrategyKind kind, std::uint32_t conn = 1, const char* tag = "path",
                  Contract contract = {}) {
    const auto strategy = make_strategy(kind);
    StrategyAssignment assign(world.overlay, *strategy);
    PathBuilder builder(world.overlay, world.quality);
    auto stream = world.root.child(tag, conn);
    return builder.build(kPair, conn, kInitiator, kResponder, contract, assign, stream);
  }

  static constexpr net::PairId kPair = 6;
  static constexpr NodeId kInitiator = 0;
  static constexpr NodeId kResponder = 19;
  p2ptest::StableWorld world{3};
};

}  // namespace

TEST_F(PathTest, PathStartsAtInitiatorEndsAtResponder) {
  for (auto kind : {StrategyKind::kRandom, StrategyKind::kUtilityModelI,
                    StrategyKind::kUtilityModelII}) {
    const BuiltPath p = build(kind);
    ASSERT_GE(p.nodes.size(), 2u);
    EXPECT_EQ(p.initiator(), kInitiator);
    EXPECT_EQ(p.responder(), kResponder);
  }
}

TEST_F(PathTest, EdgeQualitiesAlignWithEdges) {
  const BuiltPath p = build(StrategyKind::kUtilityModelI);
  EXPECT_EQ(p.edge_qualities.size(), p.nodes.size() - 1);
  for (double q : p.edge_qualities) {
    EXPECT_GE(q, 0.0);
    EXPECT_LE(q, 1.0);
  }
  EXPECT_DOUBLE_EQ(p.edge_qualities.back(), 1.0);  // final edge into R
}

TEST_F(PathTest, IntermediateHopsAreNeighbors) {
  const BuiltPath p = build(StrategyKind::kRandom);
  // Every non-final hop must go to a neighbour of the holder (final hop may
  // be a direct delivery).
  for (std::size_t i = 0; i + 2 < p.nodes.size(); ++i) {
    const auto nbs = world.overlay.neighbors(p.nodes[i]);
    EXPECT_TRUE(std::find(nbs.begin(), nbs.end(), p.nodes[i + 1]) != nbs.end())
        << "hop " << i << " not a neighbour";
  }
}

TEST_F(PathTest, CrowdsPathLengthGeometricOnAverage) {
  Contract c;
  c.termination = TerminationPolicy::kCrowds;
  c.p_forward = 0.75;
  double total = 0;
  const int n = 300;
  for (int i = 0; i < n; ++i) {
    total += static_cast<double>(build(StrategyKind::kRandom, i + 1, "geo", c).forwarder_count());
  }
  // Mean forwarder count = 1/(1-p) = 4 under pure Crowds; utility declines
  // and candidate exhaustion can shorten paths slightly.
  EXPECT_NEAR(total / n, 4.0, 1.0);
}

TEST_F(PathTest, HopCountPolicyBoundsForwarders) {
  Contract c;
  c.termination = TerminationPolicy::kHopCount;
  c.ttl_hops = 3;
  for (int i = 0; i < 50; ++i) {
    const BuiltPath p = build(StrategyKind::kRandom, i + 1, "ttl", c);
    EXPECT_LE(p.forwarder_count(), 3u);
    EXPECT_GE(p.forwarder_count(), 1u);  // first hop unconditional
  }
}

TEST_F(PathTest, MaxForwardersGuardRespected) {
  Contract c;
  c.termination = TerminationPolicy::kCrowds;
  c.p_forward = 0.999;  // essentially never deliver voluntarily
  PathBuilderConfig cfg;
  cfg.max_forwarders = 10;
  const auto strategy = make_strategy(StrategyKind::kRandom);
  StrategyAssignment assign(world.overlay, *strategy);
  PathBuilder builder(world.overlay, world.quality, cfg);
  auto stream = world.root.child("guard");
  const BuiltPath p = builder.build(kPair, 1, kInitiator, kResponder, c, assign, stream);
  EXPECT_LE(p.forwarder_count(), 10u);
  EXPECT_EQ(p.responder(), kResponder);
}

TEST_F(PathTest, DeclinesWhenBenefitTooLow) {
  Contract c;
  c.forwarding_benefit = 0.01;  // below everyone's C_p
  c.tau = 2.0;
  const auto strategy = make_strategy(StrategyKind::kUtilityModelI);
  StrategyAssignment assign(world.overlay, *strategy);
  PathBuilder builder(world.overlay, world.quality);
  auto stream = world.root.child("declines");
  const BuiltPath p = builder.build(kPair, 1, kInitiator, kResponder, c, assign, stream);
  // Everyone declines: the initiator's only option each hop is delivery...
  // but the first hop is unconditional, so the path is I -> R direct after
  // candidate exhaustion.
  EXPECT_EQ(p.nodes, (std::vector<NodeId>{kInitiator, kResponder}));
  EXPECT_GT(p.declined, 0u);
}

TEST_F(PathTest, NoDeclinesWhenDisabled) {
  Contract c;
  c.forwarding_benefit = 0.01;
  PathBuilderConfig cfg;
  cfg.allow_declines = false;
  const auto strategy = make_strategy(StrategyKind::kUtilityModelI);
  StrategyAssignment assign(world.overlay, *strategy);
  PathBuilder builder(world.overlay, world.quality, cfg);
  auto stream = world.root.child("nodecl");
  const BuiltPath p = builder.build(kPair, 1, kInitiator, kResponder, c, assign, stream);
  EXPECT_EQ(p.declined, 0u);
}

TEST_F(PathTest, DeterministicGivenSameStream) {
  auto build_with = [&](const char* tag) {
    const auto strategy = make_strategy(StrategyKind::kUtilityModelI);
    StrategyAssignment assign(world.overlay, *strategy);
    PathBuilder builder(world.overlay, world.quality);
    auto stream = world.root.child(tag);
    return builder.build(kPair, 1, kInitiator, kResponder, Contract{}, assign, stream).nodes;
  };
  EXPECT_EQ(build_with("same"), build_with("same"));
}

TEST_F(PathTest, UtilityRoutingReusesForwardersAcrossConnections) {
  // Build k connections recording history between them; the union of
  // forwarders under model I must be smaller than under random routing.
  auto run = [&](StrategyKind kind, const char* tag) {
    const auto strategy = make_strategy(kind);
    StrategyAssignment assign(world.overlay, *strategy);
    PathBuilder builder(world.overlay, world.quality);
    std::set<NodeId> forwarders;
    HistoryStore fresh(world.overlay.size());
    EdgeQualityEvaluator quality(world.probing, fresh, QualityWeights{});
    PathBuilder b2(world.overlay, quality);
    for (std::uint32_t k = 1; k <= 20; ++k) {
      auto stream = world.root.child(tag, k);
      const BuiltPath p = b2.build(kPair, k, kInitiator, kResponder, Contract{}, assign, stream);
      fresh.record_path(kPair, p.nodes);
      for (std::size_t i = 1; i + 1 < p.nodes.size(); ++i) forwarders.insert(p.nodes[i]);
    }
    return forwarders.size();
  };
  const auto random_set = run(StrategyKind::kRandom, "rr");
  const auto utility_set = run(StrategyKind::kUtilityModelI, "u1");
  EXPECT_LT(utility_set, random_set);
}
