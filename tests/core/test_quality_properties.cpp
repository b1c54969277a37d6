// Weight-parameterised properties of edge quality and the utility models.
#include <gtest/gtest.h>

#include "core/utility.hpp"
#include "fixtures.hpp"

using namespace p2panon;
using namespace p2panon::core;
using net::NodeId;

namespace {

class QualityWeightSweep : public ::testing::TestWithParam<double> {
 protected:
  QualityWeightSweep()
      : world(71),
        weights{GetParam(), 1.0 - GetParam()},
        quality(world.probing, world.history, weights) {}

  void SetUp() override { world.warmup(); }

  p2ptest::StableWorld world;
  QualityWeights weights;
  EdgeQualityEvaluator quality;
};

}  // namespace

TEST_P(QualityWeightSweep, QualityBoundedForAllEdges) {
  for (NodeId s = 0; s < world.overlay.size(); ++s) {
    for (NodeId v : world.overlay.neighbors(s)) {
      const double q = quality.edge_quality(s, v, 19, 1, net::kInvalidNode, 3);
      EXPECT_GE(q, 0.0);
      EXPECT_LE(q, 1.0);
    }
  }
}

TEST_P(QualityWeightSweep, ResponderEdgeAlwaysOne) {
  EXPECT_DOUBLE_EQ(quality.edge_quality(0, 19, 19, 1, net::kInvalidNode, 5), 1.0);
}

TEST_P(QualityWeightSweep, HistoryNeverLowersQuality) {
  const NodeId s = 0;
  const NodeId u = world.overlay.neighbors(s)[1];
  const NodeId v = world.overlay.neighbors(s)[0];
  const double before = quality.edge_quality(s, v, 19, 2, u, 4);
  for (int k = 1; k <= 3; ++k) world.history.record_path(2, {u, s, v});
  const double after = quality.edge_quality(s, v, 19, 2, u, 4);
  EXPECT_GE(after, before - 1e-12);
}

TEST_P(QualityWeightSweep, Model1UtilityMonotoneInQuality) {
  // Holding costs fixed, a strictly better edge must yield strictly higher
  // Model-I utility whenever P_r > 0 — the alignment property Eq. 1 is
  // built for. We synthesise the comparison via history manipulation.
  DecisionResources resources;
  RoutingContext ctx{world.overlay.state(), world.overlay.links(), quality, Contract{}, 6, 5, 19,
                     resources};
  const NodeId s = 1;
  const auto nbs = world.overlay.neighbors(s);
  ASSERT_GE(nbs.size(), 2u);
  const NodeId hi = nbs[0];
  const NodeId u = 0;  // a predecessor of s = 1 on the recorded paths
  for (int k = 1; k <= 4; ++k) world.history.record_path(6, {u, s, hi});
  const double q_hi = quality.edge_quality(s, hi, 19, 6, u, 5);
  const double q_lo = quality.edge_quality(s, nbs[1], 19, 6, u, 5);
  if (weights.w_selectivity == 0.0 || q_hi <= q_lo) {
    GTEST_SKIP() << "no quality contrast under these weights";
  }
  const double u_hi = model1_utility(ctx, s, u, hi) +
                      transmission_cost(ctx, s, hi);  // normalise cost away
  const double u_lo = model1_utility(ctx, s, u, nbs[1]) +
                      transmission_cost(ctx, s, nbs[1]);
  EXPECT_GT(u_hi, u_lo);
}

TEST_P(QualityWeightSweep, Model2AtLeastModel1ForInteriorHops) {
  DecisionResources resources;
  RoutingContext ctx{world.overlay.state(), world.overlay.links(), quality, Contract{}, 6, 1, 19,
                     resources};
  for (NodeId j : world.overlay.neighbors(0)) {
    if (j == 19) continue;
    EXPECT_GE(model2_utility(ctx, 0, net::kInvalidNode, j, 3) + 1e-12,
              model1_utility(ctx, 0, net::kInvalidNode, j));
  }
}

INSTANTIATE_TEST_SUITE_P(Weights, QualityWeightSweep,
                         ::testing::Values(0.0, 0.25, 0.5, 0.75, 1.0));
