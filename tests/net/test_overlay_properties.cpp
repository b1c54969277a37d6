// Seed-parameterised overlay invariants: properties that must survive any
// churn realisation.
#include <gtest/gtest.h>

#include <set>

#include "net/overlay.hpp"
#include "sim/simulator.hpp"

using namespace p2panon::net;
namespace sim = p2panon::sim;

namespace {

class OverlayProperties : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  OverlayProperties() : overlay_(config(), simulator_, sim::rng::Stream(GetParam())) {}

  static OverlayConfig config() {
    OverlayConfig cfg;
    cfg.node_count = 30;
    cfg.degree = 5;
    cfg.malicious_fraction = 0.2;
    cfg.churn.session_median = sim::minutes(30.0);
    cfg.churn.session_min = sim::minutes(5.0);
    cfg.churn.departure_probability = 0.2;
    return cfg;
  }

  void run(sim::Time horizon = sim::hours(12.0)) {
    overlay_.start();
    simulator_.run_until(horizon);
  }

  sim::Simulator simulator_;
  Overlay overlay_;
};

}  // namespace

TEST_P(OverlayProperties, DegreeInvariantUnderChurn) {
  run();
  for (NodeId id = 0; id < overlay_.size(); ++id) {
    EXPECT_EQ(overlay_.neighbors(id).size(), 5u) << "node " << id;
  }
}

TEST_P(OverlayProperties, NeighborsAlwaysDistinctAndNotSelf) {
  run();
  for (NodeId id = 0; id < overlay_.size(); ++id) {
    std::set<NodeId> uniq;
    for (NodeId nb : overlay_.neighbors(id)) {
      EXPECT_NE(nb, id);
      uniq.insert(nb);
    }
    EXPECT_EQ(uniq.size(), overlay_.neighbors(id).size()) << "duplicate neighbour at " << id;
  }
}

TEST_P(OverlayProperties, AvailabilityAlwaysInUnitInterval) {
  run();
  for (NodeId id = 0; id < overlay_.size(); ++id) {
    const double a = overlay_.true_availability(id);
    EXPECT_GE(a, 0.0);
    EXPECT_LE(a, 1.0);
  }
}

TEST_P(OverlayProperties, DepartedNodesStayGone) {
  run();
  const auto departed_then = [&] {
    std::set<NodeId> out;
    for (NodeId id = 0; id < overlay_.size(); ++id) {
      if (overlay_.state().departed[id] != 0) out.insert(id);
    }
    return out;
  }();
  simulator_.run_until(simulator_.now() + sim::hours(12.0));
  for (NodeId id : departed_then) {
    EXPECT_TRUE(overlay_.state().departed[id] != 0);
    EXPECT_FALSE(overlay_.is_online(id));
  }
}

TEST_P(OverlayProperties, OnlineNodesAreNotDeparted) {
  run();
  for (NodeId id : overlay_.online_nodes()) {
    EXPECT_FALSE(overlay_.state().departed[id] != 0);
  }
}

TEST_P(OverlayProperties, MaliciousAssignmentIsStable) {
  const auto before = overlay_.malicious_nodes();
  run();
  EXPECT_EQ(overlay_.malicious_nodes(), before);
  EXPECT_EQ(before.size(), 6u);  // 0.2 * 30
}

TEST_P(OverlayProperties, ForceOnlineIdempotentAndEffective) {
  run(sim::hours(2.0));
  for (NodeId id = 0; id < 5; ++id) {
    overlay_.force_online(id);
    overlay_.force_online(id);
    EXPECT_TRUE(overlay_.is_online(id));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OverlayProperties, ::testing::Values(1, 2, 3, 5, 8, 13, 21));
