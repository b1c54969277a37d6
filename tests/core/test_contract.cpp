#include "core/contract.hpp"

#include <gtest/gtest.h>

using namespace p2panon::core;

TEST(Contract, RoutingBenefitIsTauTimesForwarding) {
  Contract c;
  c.forwarding_benefit = 80.0;
  c.tau = 0.5;
  EXPECT_DOUBLE_EQ(c.routing_benefit(), 40.0);
  c.tau = 4.0;
  EXPECT_DOUBLE_EQ(c.routing_benefit(), 320.0);
}

TEST(Contract, CrowdsExpectedLengthGeometric) {
  Contract c;
  c.termination = TerminationPolicy::kCrowds;
  c.p_forward = 0.75;
  EXPECT_DOUBLE_EQ(c.expected_path_length(), 4.0);
  c.p_forward = 0.5;
  EXPECT_DOUBLE_EQ(c.expected_path_length(), 2.0);
}

TEST(Contract, HopCountExpectedLengthIsTtl) {
  Contract c;
  c.termination = TerminationPolicy::kHopCount;
  c.ttl_hops = 6;
  EXPECT_DOUBLE_EQ(c.expected_path_length(), 6.0);
}

TEST(Contract, PaperDefaultsAreSane) {
  const Contract c;
  EXPECT_GE(c.forwarding_benefit, 50.0);
  EXPECT_LE(c.forwarding_benefit, 100.0);
  EXPECT_GT(c.p_forward, 0.0);
  EXPECT_LT(c.p_forward, 1.0);
}

TEST(QualityWeightsExtra, BoundarySums) {
  EXPECT_TRUE((QualityWeights{1.0, 0.0}.valid()));
  EXPECT_TRUE((QualityWeights{0.0, 1.0}.valid()));
  EXPECT_FALSE((QualityWeights{0.5, 0.6}.valid()));
}

TEST(QualityWeightsExtra, SimplexRuleNamesTheMemberItBreaks) {
  EXPECT_EQ((QualityWeights{-0.5, 1.5}.violation()->member), "w_selectivity");
  EXPECT_EQ((QualityWeights{1.5, -0.5}.violation()->member), "w_availability");
  EXPECT_EQ((QualityWeights{0.5, 0.5 - 1e-11}.violation()->member),
            "w_selectivity + w_availability");
  EXPECT_TRUE((QualityWeights{0.1, 1.0 - 0.1 + 1e-13}.valid()));  // inside kSumTolerance
  // The lookahead certificate is exact: a valid pair a hair above 1 fails
  // it, and a pair below 1 that is off the simplex passes it.
  EXPECT_FALSE((QualityWeights{0.5, 0.5 + 1e-13}.at_most_one()));
  EXPECT_TRUE((QualityWeights{0.25, 0.5}.at_most_one()));
  EXPECT_FALSE((QualityWeights{3.0, -2.0}.at_most_one()));
}
