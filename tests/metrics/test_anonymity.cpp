#include "metrics/anonymity.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

using namespace p2panon::metrics;

TEST(ShannonEntropy, UniformDistribution) {
  std::vector<double> p(8, 0.125);
  EXPECT_NEAR(shannon_entropy_bits(p), 3.0, 1e-12);
}

TEST(ShannonEntropy, DegenerateDistributionIsZero) {
  std::vector<double> p{1.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(shannon_entropy_bits(p), 0.0);
}

TEST(ShannonEntropy, UnnormalisedInputIsNormalised) {
  std::vector<double> p{2.0, 2.0, 2.0, 2.0};
  EXPECT_NEAR(shannon_entropy_bits(p), 2.0, 1e-12);
}

TEST(ShannonEntropy, EmptyAndZeroAreZero) {
  EXPECT_DOUBLE_EQ(shannon_entropy_bits({}), 0.0);
  std::vector<double> z{0.0, 0.0};
  EXPECT_DOUBLE_EQ(shannon_entropy_bits(z), 0.0);
}

TEST(ShannonEntropy, SkewLowersEntropy) {
  std::vector<double> uniform{0.25, 0.25, 0.25, 0.25};
  std::vector<double> skewed{0.7, 0.1, 0.1, 0.1};
  EXPECT_LT(shannon_entropy_bits(skewed), shannon_entropy_bits(uniform));
}

TEST(DegreeOfAnonymity, UniformIsOne) {
  std::vector<double> p(16, 1.0 / 16.0);
  EXPECT_NEAR(degree_of_anonymity(p), 1.0, 1e-12);
}

TEST(DegreeOfAnonymity, IdentifiedIsZero) {
  std::vector<double> p{0.0, 1.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(degree_of_anonymity(p), 0.0);
}

TEST(DegreeOfAnonymity, SingleCandidateIsZero) {
  std::vector<double> p{1.0};
  EXPECT_DOUBLE_EQ(degree_of_anonymity(p), 0.0);
}

TEST(EffectiveSetSize, MatchesUniformSupport) {
  std::vector<double> p(10, 0.1);
  EXPECT_NEAR(effective_set_size(p), 10.0, 1e-9);
}

TEST(EffectiveSetSize, ShrinksWithSkew) {
  std::vector<double> skewed{0.9, 0.05, 0.05};
  EXPECT_LT(effective_set_size(skewed), 3.0);
  EXPECT_GE(effective_set_size(skewed), 1.0);
}

TEST(AnonymityValue, StrictlyDecreasingInSetSize) {
  double prev = anonymity_value(0.0);
  for (double x = 1.0; x <= 15.0; x += 1.0) {
    const double v = anonymity_value(x);
    EXPECT_LT(v, prev) << "A not decreasing at x=" << x;
    prev = v;
  }
}

TEST(AnonymityValue, NonNegative) {
  for (double x = 0.0; x <= 100.0; x += 5.0) EXPECT_GE(anonymity_value(x), 0.0);
}

TEST(AnonymityValue, PerfectAnonymityEqualsScale) {
  EXPECT_EQ(anonymity_value(0.0), kAnonymityScale);
}

TEST(InitiatorUtility, MatchesEquationTwo) {
  const double u = initiator_utility(10.0, 50.0, 100.0);
  EXPECT_NEAR(u, anonymity_value(10.0) - 10.0 * 50.0 - 100.0, 1e-12);
  EXPECT_NEAR(anonymity_value(10.0), 10000.0 * std::exp(-0.5), 1e-9);
}

TEST(InitiatorUtility, SmallerSetHigherUtility) {
  EXPECT_GT(initiator_utility(4.0, 50.0, 100.0), initiator_utility(12.0, 50.0, 100.0));
}
