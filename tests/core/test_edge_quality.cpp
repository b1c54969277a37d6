#include "core/edge_quality.hpp"

#include <gtest/gtest.h>

#include "fixtures.hpp"
#include "net/sharded_probing.hpp"
#include "net/soa.hpp"
#include "sim/rng.hpp"

using namespace p2panon;
using namespace p2panon::core;
using net::NodeId;

namespace {

class EdgeQualityTest : public ::testing::Test {
 protected:
  void SetUp() override { world.warmup(); }
  p2ptest::StableWorld world{1};
};

}  // namespace

TEST_F(EdgeQualityTest, LastHopToResponderIsOne) {
  const NodeId s = 0;
  const NodeId responder = 5;
  EXPECT_DOUBLE_EQ(world.quality.edge_quality(s, responder, responder, 0, net::kInvalidNode, 1),
                   1.0);
}

TEST_F(EdgeQualityTest, QualityInUnitInterval) {
  for (NodeId s = 0; s < world.overlay.size(); ++s) {
    for (NodeId v : world.overlay.neighbors(s)) {
      const double q = world.quality.edge_quality(s, v, 19, 0, net::kInvalidNode, 1);
      EXPECT_GE(q, 0.0);
      EXPECT_LE(q, 1.0);
    }
  }
}

TEST_F(EdgeQualityTest, NoHistoryMeansAvailabilityOnly) {
  const NodeId s = 0;
  const NodeId v = world.overlay.neighbors(s)[0];
  // w_s = w_a = 0.5 and sigma = 0: q = 0.5 * alpha.
  const double expected = 0.5 * world.probing.availability(s, v);
  EXPECT_DOUBLE_EQ(world.quality.edge_quality(s, v, 19, 0, net::kInvalidNode, 1), expected);
}

TEST_F(EdgeQualityTest, HistoryRaisesQuality) {
  const NodeId s = 0;
  const NodeId u = world.overlay.neighbors(s)[1];
  const NodeId v = world.overlay.neighbors(s)[0];
  const double before = world.quality.edge_quality(s, v, 19, 3, u, 5);
  for (int k = 1; k <= 4; ++k) world.history.record_path(3, {u, s, v});
  const double after = world.quality.edge_quality(s, v, 19, 3, u, 5);
  EXPECT_GT(after, before);
  EXPECT_NEAR(after - before, 0.5 * 1.0, 1e-12);  // sigma went 0 -> 1
}

TEST_F(EdgeQualityTest, WeightsShiftEmphasis) {
  const NodeId s = 0;
  const NodeId u = world.overlay.neighbors(s)[1];
  const NodeId v = world.overlay.neighbors(s)[0];
  world.history.record_path(3, {u, s, v});

  EdgeQualityEvaluator selective(world.probing, world.history, QualityWeights{1.0, 0.0});
  EdgeQualityEvaluator available(world.probing, world.history, QualityWeights{0.0, 1.0});
  // Pure selectivity at k = 2: sigma = 1/1 = 1.
  EXPECT_DOUBLE_EQ(selective.edge_quality(s, v, 19, 3, u, 2), 1.0);
  // Pure availability: equals alpha.
  EXPECT_DOUBLE_EQ(available.edge_quality(s, v, 19, 3, u, 2),
                   world.probing.availability(s, v));
}

TEST_F(EdgeQualityTest, PathQualitySumsEdges) {
  // Path 0 -> n0 -> 19 (n0 a neighbour of 0): quality = q(0, n0) + 1.
  const NodeId n0 = world.overlay.neighbors(0)[0];
  const std::vector<NodeId> path{0, n0, 19};
  const double q0 = world.quality.edge_quality(0, n0, 19, 4, net::kInvalidNode, 1);
  EXPECT_NEAR(world.quality.path_quality(path, 4, 1), q0 + 1.0, 1e-12);
}

TEST_F(EdgeQualityTest, DirectPathQualityIsOne) {
  const std::vector<NodeId> path{0, 19};
  EXPECT_DOUBLE_EQ(world.quality.path_quality(path, 4, 1), 1.0);
}

TEST(EdgeQualityEvaluator, ScoresOverASlotAddressedEstimator) {
  // N = 5, d = 2 with D(s) = [s+1, s+2] mod 5, one shard: no overlay, no
  // serial driver, just the columns and the estimator.
  net::NodeStateSoA state;
  state.resize(5, 2);
  for (NodeId id = 0; id < 5; ++id) {
    state.neighbors_of(id)[0] = (id + 1) % 5;
    state.neighbors_of(id)[1] = (id + 2) % 5;
    state.online[id] = 1;
  }
  const net::ShardPartition partition(5, 1);
  net::ShardedProbing probing(state, partition, 300.0, sim::rng::Stream(3));
  // Node 2 is down for 0's first probe, so 0's two slots end up with
  // different, non-uniform availabilities.
  state.online[2] = 0;
  probing.probe(0, state.online);
  state.online[2] = 1;
  probing.probe(0, state.online);
  ASSERT_NE(probing.availability(0, 0), probing.availability(0, 1));

  HistoryStore history(5);
  const NodeId u = 4;  // D(4) = [0, 1]: 4 -> 0 -> 1 is a path
  history.record_path(7, {u, 0, 1});
  const QualityWeights w{0.3, 0.7};
  const EdgeQualityEvaluator eval(probing, history, w);
  for (const NodeId v : state.neighbors_of(0)) {
    SCOPED_TRACE(v);
    const double sigma = history.at(0).selectivity(7, u, v, 2);
    const double alpha = probing.availability(0, probing.slot_of(0, v));
    EXPECT_EQ(eval.edge_quality(0, v, 4, 7, u, 2),
              w.w_selectivity * sigma + w.w_availability * alpha);
  }
  EXPECT_GT(history.at(0).selectivity(7, u, 1, 2), 0.0);
  EXPECT_EQ(eval.edge_quality(0, 2, 2, 7, u, 2), 1.0) << "responder edge";
}

TEST(QualityWeights, Validation) {
  EXPECT_TRUE(QualityWeights{}.valid());
  EXPECT_TRUE((QualityWeights{0.3, 0.7}.valid()));
  EXPECT_FALSE((QualityWeights{0.3, 0.3}.valid()));
  EXPECT_FALSE((QualityWeights{-0.2, 1.2}.valid()));
}
