#include "core/spne_routing.hpp"

#include <gtest/gtest.h>

#include "core/incentive.hpp"
#include "core/utility.hpp"
#include "fixtures.hpp"

using namespace p2panon;
using namespace p2panon::core;
using net::NodeId;

namespace {

class SpneRoutingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    world.warmup();
    ctx = std::make_unique<RoutingContext>(
        RoutingContext{world.overlay.state(), world.overlay.links(), world.quality, Contract{},
                       2, 3, kResponder, resources});
  }

  static constexpr NodeId kResponder = 19;
  p2ptest::StableWorld world{41};
  DecisionResources resources;
  std::unique_ptr<RoutingContext> ctx;
};

}  // namespace

TEST_F(SpneRoutingTest, LiveGameIsSubgamePerfect) {
  const game::PathGameSpec spec = SpneRouting::make_spec(*ctx);
  const game::BackwardInductionSolver solver(spec, 3);
  EXPECT_TRUE(solver.verify_subgame_perfection());
}

TEST_F(SpneRoutingTest, ChoiceComesFromCandidates) {
  SpneRouting routing(3);
  const auto candidates = world.overlay.online_neighbors(0);
  ASSERT_FALSE(candidates.empty());
  auto stream = world.root.child("s");
  const HopChoice c = routing.choose(*ctx, 0, net::kInvalidNode, candidates, stream);
  EXPECT_NE(std::find(candidates.begin(), candidates.end(), c.next), candidates.end());
  EXPECT_EQ(routing.name(), "spne");
}

TEST_F(SpneRoutingTest, Deterministic) {
  SpneRouting routing(3);
  const auto candidates = world.overlay.online_neighbors(0);
  auto s1 = world.root.child("a"), s2 = world.root.child("b");
  EXPECT_EQ(routing.choose(*ctx, 0, net::kInvalidNode, candidates, s1).next,
            routing.choose(*ctx, 0, net::kInvalidNode, candidates, s2).next);
}

TEST_F(SpneRoutingTest, ZeroStagesDelivers) {
  // With no forwarding stages, the only rational move is the best immediate
  // edge; if the responder is a candidate it wins (quality 1).
  SpneRouting routing(0);
  std::vector<NodeId> candidates = world.overlay.online_neighbors(0);
  candidates.push_back(kResponder);
  auto stream = world.root.child("z");
  const HopChoice c = routing.choose(*ctx, 0, net::kInvalidNode, candidates, stream);
  EXPECT_EQ(c.next, kResponder);
}

TEST_F(SpneRoutingTest, AgreesWithLookaheadWhenHistoryIsEmpty) {
  // With no history, selectivity is 0 regardless of predecessor, so the
  // stage-game quality equals the lookahead quality and the two Model-II
  // realisations should usually coincide. (They may differ when the
  // lookahead's no-revisit context matters; assert agreement on fresh
  // contexts only.)
  SpneRouting spne(2);
  UtilityModelIIRouting lookahead(2);
  auto stream = world.root.child("agree");
  int agree = 0, total = 0;
  for (NodeId self = 0; self < world.overlay.size(); ++self) {
    if (self == kResponder || !world.overlay.is_online(self)) continue;
    const auto candidates = world.overlay.online_neighbors(self);
    if (candidates.empty()) continue;
    ++total;
    const auto a = spne.choose(*ctx, self, net::kInvalidNode, candidates, stream);
    const auto b = lookahead.choose(*ctx, self, net::kInvalidNode, candidates, stream);
    if (a.next == b.next) ++agree;
  }
  ASSERT_GT(total, 5);
  EXPECT_GT(static_cast<double>(agree) / total, 0.6);
}

TEST_F(SpneRoutingTest, WorksInsideConnectionSession) {
  const auto strategy = make_strategy(StrategyKind::kSpne, 3);
  StrategyAssignment assign(world.overlay, *strategy);
  PathBuilder builder(world.overlay, world.quality);
  PayoffLedger ledger(world.overlay.size());
  ConnectionSetSession session(2, 0, kResponder, Contract{});
  auto stream = world.root.child("sess");
  for (std::uint32_t k = 0; k < 10; ++k) {
    const BuiltPath& p =
        session.run_connection(builder, world.history, assign, ledger, world.overlay, stream);
    EXPECT_EQ(p.responder(), kResponder);
  }
  EXPECT_EQ(session.connections_run(), 10u);
  EXPECT_GT(session.path_quality(), 0.0);
}

TEST_F(SpneRoutingTest, ShrinkForwarderSetVsRandom) {
  auto run_kind = [&](StrategyKind kind, const char* tag) {
    const auto strategy = make_strategy(kind, 3);
    StrategyAssignment assign(world.overlay, *strategy);
    HistoryStore fresh(world.overlay.size());
    EdgeQualityEvaluator quality(world.probing, fresh, QualityWeights{});
    PathBuilder builder(world.overlay, quality);
    PayoffLedger ledger(world.overlay.size());
    ConnectionSetSession session(2, 0, kResponder, Contract{});
    auto stream = world.root.child(tag);
    for (std::uint32_t k = 0; k < 20; ++k) {
      session.run_connection(builder, fresh, assign, ledger, world.overlay, stream);
    }
    return session.forwarder_set().size();
  };
  EXPECT_LT(run_kind(StrategyKind::kSpne, "spne"), run_kind(StrategyKind::kRandom, "rand"));
}
