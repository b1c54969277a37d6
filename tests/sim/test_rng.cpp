#include "sim/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <map>
#include <set>
#include <vector>

#include "parallel/thread_pool.hpp"

namespace rng = p2panon::sim::rng;

TEST(SplitMix64, KnownSequenceIsDeterministic) {
  std::uint64_t s1 = 42, s2 = 42;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng::splitmix64(s1), rng::splitmix64(s2));
  }
}

TEST(SplitMix64, DistinctSeedsDiverge) {
  std::uint64_t s1 = 1, s2 = 2;
  EXPECT_NE(rng::splitmix64(s1), rng::splitmix64(s2));
}

TEST(HashTag, StableAndDiscriminating) {
  EXPECT_EQ(rng::hash_tag("churn"), rng::hash_tag("churn"));
  EXPECT_NE(rng::hash_tag("churn"), rng::hash_tag("links"));
  EXPECT_NE(rng::hash_tag(""), rng::hash_tag("a"));
}

TEST(Stream, SameSeedSameSequence) {
  rng::Stream a(7), b(7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Stream, DifferentSeedsDifferentSequences) {
  rng::Stream a(7), b(8);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Stream, ChildStreamsIndependentOfParentConsumption) {
  rng::Stream parent(99);
  rng::Stream c1 = parent.child("x", 1);
  // Consuming the parent must not change what a child derived later yields.
  for (int i = 0; i < 50; ++i) parent.next_u64();
  rng::Stream c2 = parent.child("x", 1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(c1.next_u64(), c2.next_u64());
}

TEST(Stream, ChildrenWithDistinctTagsDiffer) {
  rng::Stream parent(99);
  rng::Stream a = parent.child("alpha"), b = parent.child("beta");
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Stream, ChildrenWithDistinctIdsDiffer) {
  rng::Stream parent(99);
  rng::Stream a = parent.child("t", 0), b = parent.child("t", 1);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Stream, ChainedDerivationDoesNotCancel) {
  // Regression: with XOR-only key derivation, child("a", i).child("b", i)
  // collapsed to the same stream for every i (the id term cancelled),
  // which made e.g. all Crowds termination coin sequences identical.
  rng::Stream root(3);
  auto g1 = root.child("a", 7).child("b", 7);
  auto g2 = root.child("a", 8).child("b", 8);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (g1.next_u64() == g2.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Stream, FirstDrawOfChildStreamsUnbiased) {
  // Regression companion: the first double of fresh child streams must be
  // uniform across ids, not clustered.
  rng::Stream root(3);
  int below = 0;
  const int n = 20000;
  for (int c = 0; c < n; ++c) {
    auto s = root.child("geo", c).child("termination", c);
    if (s.next_double() < 0.75) ++below;
  }
  EXPECT_NEAR(static_cast<double>(below) / n, 0.75, 0.02);
}

TEST(Stream, GrandchildrenDeterministic) {
  rng::Stream p(5);
  auto g1 = p.child("a", 3).child("b", 9);
  auto g2 = rng::Stream(5).child("a", 3).child("b", 9);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(g1.next_u64(), g2.next_u64());
}

TEST(Stream, NextDoubleInUnitInterval) {
  rng::Stream s(123);
  for (int i = 0; i < 10000; ++i) {
    const double x = s.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Stream, NextDoubleMeanNearHalf) {
  rng::Stream s(321);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += s.next_double();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Stream, UniformRespectsBounds) {
  rng::Stream s(11);
  for (int i = 0; i < 10000; ++i) {
    const double x = s.uniform(-3.0, 7.5);
    EXPECT_GE(x, -3.0);
    EXPECT_LT(x, 7.5);
  }
}

TEST(Stream, BelowIsUnbiasedAcrossSmallRange) {
  rng::Stream s(77);
  std::map<std::uint64_t, int> counts;
  const int n = 60000;
  for (int i = 0; i < n; ++i) ++counts[s.below(6)];
  ASSERT_EQ(counts.size(), 6u);
  for (const auto& [v, c] : counts) {
    EXPECT_LT(v, 6u);
    EXPECT_NEAR(static_cast<double>(c) / n, 1.0 / 6.0, 0.01);
  }
}

TEST(Stream, BelowOneAlwaysZero) {
  rng::Stream s(4);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(s.below(1), 0u);
}

TEST(Stream, UniformIntInclusiveBounds) {
  rng::Stream s(8);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = s.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(Stream, BernoulliFrequencyMatchesP) {
  rng::Stream s(13);
  const int n = 100000;
  int hits = 0;
  for (int i = 0; i < n; ++i) hits += s.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Stream, BernoulliDegenerateCases) {
  rng::Stream s(14);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(s.bernoulli(0.0));
    EXPECT_TRUE(s.bernoulli(1.0));
  }
}

TEST(Stream, ExponentialMeanMatchesRate) {
  rng::Stream s(15);
  const double rate = 0.25;
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = s.exponential(rate);
    EXPECT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 1.0 / rate, 0.05);
}

TEST(Stream, ParetoRespectsScale) {
  rng::Stream s(16);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(s.pareto(1.5, 2.0), 2.0);
}

TEST(Stream, ParetoMedianMatchesShapeFormula) {
  const double xm = 5.0, median = 60.0;
  const double alpha = rng::pareto_shape_for_median(xm, median);
  rng::Stream s(17);
  std::vector<double> xs;
  const int n = 100001;
  xs.reserve(n);
  for (int i = 0; i < n; ++i) xs.push_back(s.pareto(alpha, xm));
  std::nth_element(xs.begin(), xs.begin() + n / 2, xs.end());
  EXPECT_NEAR(xs[n / 2], median, median * 0.05);
}

TEST(Stream, BoundedParetoStaysInBounds) {
  rng::Stream s(18);
  for (int i = 0; i < 20000; ++i) {
    const double x = s.bounded_pareto(1.2, 5.0, 100.0);
    EXPECT_GE(x, 5.0);
    EXPECT_LE(x, 100.0 + 1e-9);
  }
}

TEST(Stream, BoundedParetoSkewsLow) {
  // Pareto mass concentrates near the lower bound: the median must be much
  // closer to lo than to hi.
  rng::Stream s(19);
  std::vector<double> xs;
  const int n = 50001;
  for (int i = 0; i < n; ++i) xs.push_back(s.bounded_pareto(1.0, 1.0, 1000.0));
  std::nth_element(xs.begin(), xs.begin() + n / 2, xs.end());
  EXPECT_LT(xs[n / 2], 10.0);
}

TEST(Stream, NormalMeanAndStddev) {
  rng::Stream s(20);
  const int n = 200000;
  double sum = 0, sq = 0;
  for (int i = 0; i < n; ++i) {
    const double x = s.normal(10.0, 3.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.05);
}

TEST(Stream, ShufflePreservesElements) {
  rng::Stream s(21);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  s.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Stream, ShuffleActuallyPermutes) {
  rng::Stream s(22);
  std::vector<int> v(50);
  for (int i = 0; i < 50; ++i) v[i] = i;
  auto orig = v;
  s.shuffle(v);
  EXPECT_NE(v, orig);  // probability ~1/50! of a false failure
}

TEST(Stream, SampleIndicesDistinctAndInRange) {
  rng::Stream s(23);
  for (int trial = 0; trial < 100; ++trial) {
    auto idx = s.sample_indices(20, 7);
    ASSERT_EQ(idx.size(), 7u);
    std::set<std::size_t> uniq(idx.begin(), idx.end());
    EXPECT_EQ(uniq.size(), 7u);
    for (auto i : idx) EXPECT_LT(i, 20u);
  }
}

TEST(Stream, SampleIndicesFullRange) {
  rng::Stream s(24);
  auto idx = s.sample_indices(5, 5);
  std::set<std::size_t> uniq(idx.begin(), idx.end());
  EXPECT_EQ(uniq.size(), 5u);
}

TEST(Stream, SampleIndicesZero) {
  rng::Stream s(25);
  EXPECT_TRUE(s.sample_indices(5, 0).empty());
}

namespace {

// The dense partial Fisher-Yates that Stream::sample_indices must reproduce
// draw for draw: an n-element identity array, swap i with i + below(n - i).
std::vector<std::size_t> dense_sample_indices(rng::Stream& s, std::size_t n, std::size_t k) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(s.below(n - i));
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

}  // namespace

TEST(Stream, SampleIndicesMatchesDenseReference) {
  for (const std::size_t n : {1u, 2u, 3u, 5u, 16u, 97u, 1000u}) {
    std::set<std::size_t> ks = {0, 1, n / 2, n - 1, n};
    if (n >= 8) ks.insert(8);
    for (const std::size_t k : ks) {
      for (std::uint64_t seed = 0; seed < 200; ++seed) {
        rng::Stream sparse = rng::Stream(seed).child("sample", n * 1000 + k);
        rng::Stream dense = sparse;
        ASSERT_EQ(sparse.sample_indices(n, k), dense_sample_indices(dense, n, k))
            << "n=" << n << " k=" << k << " seed=" << seed;
        // Same draws consumed: both streams continue identically.
        ASSERT_EQ(sparse.next_u64(), dense.next_u64()) << "n=" << n << " k=" << k;
      }
    }
  }
}

TEST(Stream, SampleIndicesIsSublinearInN) {
  // A dense index array over 2^50 slots cannot be allocated; the sparse
  // sampler's cost depends on k only.
  const std::size_t n = std::size_t{1} << 50;
  rng::Stream s(27);
  const std::vector<std::size_t> idx = s.sample_indices(n, 16);
  ASSERT_EQ(idx.size(), 16u);
  EXPECT_EQ(std::set<std::size_t>(idx.begin(), idx.end()).size(), 16u);
  for (const std::size_t i : idx) EXPECT_LT(i, n);
}

TEST(ParetoShape, MedianFormulaInverts) {
  // alpha derived from (xm, median) must map the analytic median back.
  const double xm = 300.0;  // 5 min in seconds
  const double median = 3600.0;
  const double alpha = rng::pareto_shape_for_median(xm, median);
  EXPECT_NEAR(xm * std::pow(2.0, 1.0 / alpha), median, 1e-6);
}

TEST(BoundedParetoShape, AnalyticMedianMatchesEmpirical) {
  const double lo = 300.0, hi = 86400.0, target = 3600.0;
  const double alpha = rng::bounded_pareto_shape_for_median(lo, hi, target);
  EXPECT_NEAR(rng::bounded_pareto_median(alpha, lo, hi), target, 1e-6);

  rng::Stream s(26);
  std::vector<double> xs;
  const int n = 100001;
  xs.reserve(n);
  for (int i = 0; i < n; ++i) xs.push_back(s.bounded_pareto(alpha, lo, hi));
  std::nth_element(xs.begin(), xs.begin() + n / 2, xs.end());
  EXPECT_NEAR(xs[n / 2], target, target * 0.05);
}

TEST(BoundedParetoShape, MedianDecreasesWithShape) {
  const double lo = 1.0, hi = 1000.0;
  EXPECT_GT(rng::bounded_pareto_median(0.5, lo, hi), rng::bounded_pareto_median(2.0, lo, hi));
}

TEST(Zipf, ZeroExponentIsUniform) {
  rng::Stream s(30);
  std::vector<int> counts(5, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[s.zipf(5, 0.0)];
  for (int c : counts) EXPECT_NEAR(static_cast<double>(c) / n, 0.2, 0.01);
}

TEST(Zipf, RankProbabilitiesMatchLaw) {
  rng::Stream s(31);
  std::vector<int> counts(4, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[s.zipf(4, 1.0)];
  // Weights 1, 1/2, 1/3, 1/4; normaliser 25/12.
  const double z = 1.0 + 0.5 + 1.0 / 3.0 + 0.25;
  for (int k = 0; k < 4; ++k) {
    EXPECT_NEAR(static_cast<double>(counts[k]) / n, (1.0 / (k + 1)) / z, 0.01) << "rank " << k;
  }
}

TEST(Zipf, HigherExponentMoreSkew) {
  rng::Stream s(32);
  int top_mild = 0, top_heavy = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (s.zipf(10, 0.5) == 0) ++top_mild;
    if (s.zipf(10, 2.0) == 0) ++top_heavy;
  }
  EXPECT_GT(top_heavy, top_mild);
}

TEST(Zipf, SingleElementAlwaysZero) {
  rng::Stream s(33);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(s.zipf(1, 1.5), 0u);
}

namespace {

// The sequential inverse-CDF walk Stream::zipf must reproduce bit for bit:
// total summed in rank order, target = u * total, subtract the weights in
// rank order until the target is <= 0. The weights are precomputed with the
// same pow call, so they are the same doubles the walk would compute.
struct WalkZipf {
  WalkZipf(std::size_t n, double s) : weights(n) {
    for (std::size_t k = 0; k < n; ++k) {
      weights[k] = std::pow(static_cast<double>(k + 1), -s);
      total += weights[k];
    }
  }
  std::size_t rank(double target) const {
    for (std::size_t k = 0; k < weights.size(); ++k) {
      target -= weights[k];
      if (target <= 0.0) return k;
    }
    return weights.size() - 1;
  }
  std::size_t draw(rng::Stream& s) const {
    if (weights.size() == 1) return 0;
    return rank(s.next_double() * total);
  }
  std::vector<double> weights;
  double total = 0.0;
};

}  // namespace

TEST(Zipf, MatchesSequentialWalk) {
  std::size_t draws_total = 0;
  for (const std::size_t n : {2u, 10u, 10'000u, 100'000u}) {
    for (const double s : {0.0, 0.5, 1.0, 2.0}) {
      const WalkZipf walk(n, s);
      EXPECT_EQ(rng::detail::zipf_cdf(n, s).cdf.back(), walk.total) << "n=" << n << " s=" << s;
      // The walk costs O(rank) per draw, so large n gets fewer draws.
      const std::size_t draws = std::min<std::size_t>(1'000'000, 200'000'000 / n);
      rng::Stream fast = rng::Stream(34).child("zipf", n);
      rng::Stream ref = fast;
      for (std::size_t i = 0; i < draws; ++i) {
        ASSERT_EQ(fast.zipf(n, s), walk.draw(ref)) << "n=" << n << " s=" << s << " draw " << i;
      }
      ASSERT_EQ(fast.next_u64(), ref.next_u64());
      draws_total += draws;
    }
  }
  EXPECT_GE(draws_total, 1'000'000u);
}

TEST(Zipf, InterleavedParametersMatchWalk) {
  // Alternating (n, s) on one thread rebuilds the one-entry table each call.
  const std::vector<std::pair<std::size_t, double>> params = {
      {10, 0.5}, {1000, 1.0}, {10, 2.0}, {1, 1.0}, {1000, 1.0}, {2, 0.0}};
  std::vector<WalkZipf> walks;
  for (const auto& [n, s] : params) walks.emplace_back(n, s);
  rng::Stream fast(35);
  rng::Stream ref = fast;
  for (int i = 0; i < 20'000; ++i) {
    const std::size_t p = static_cast<std::size_t>(i) % params.size();
    ASSERT_EQ(fast.zipf(params[p].first, params[p].second), walks[p].draw(ref)) << "call " << i;
  }
}

TEST(Zipf, PoolThreadsMatchWalk) {
  // Each pool thread keeps its own table; results must not depend on which
  // thread drew or on what that thread drew before.
  constexpr std::size_t kTasks = 16;
  constexpr std::size_t kDraws = 2000;
  const std::size_t ns[] = {10, 1000};
  const double ss[] = {1.0, 0.5};
  std::vector<std::vector<std::size_t>> got(kTasks, std::vector<std::size_t>(kDraws));
  {
    p2panon::parallel::ThreadPool pool(4);
    for (std::size_t t = 0; t < kTasks; ++t) {
      pool.submit([&got, &ns, &ss, t] {
        rng::Stream s = rng::Stream(36).child("task", t);
        for (std::size_t i = 0; i < kDraws; ++i) got[t][i] = s.zipf(ns[(t + i) % 2], ss[t % 2]);
      });
    }
    pool.wait_idle();
  }
  for (std::size_t t = 0; t < kTasks; ++t) {
    const WalkZipf walks[] = {WalkZipf(ns[0], ss[t % 2]), WalkZipf(ns[1], ss[t % 2])};
    rng::Stream ref = rng::Stream(36).child("task", t);
    for (std::size_t i = 0; i < kDraws; ++i) {
      ASSERT_EQ(got[t][i], walks[(t + i) % 2].draw(ref)) << "task " << t << " draw " << i;
    }
  }
}

TEST(Zipf, CdfBoundariesTakeTheWalk) {
  // Targets exactly at, and one ulp either side of, every CDF boundary lie
  // inside the guard band, where the rounding of the walk decides; just
  // outside the band the binary search decides. Both must agree with the walk.
  const double inf = std::numeric_limits<double>::infinity();
  std::size_t search_would_differ = 0;
  for (const double s : {0.0, 0.25, 0.5, 1.0, 2.0, 40.0}) {
    for (const std::size_t n : {2u, 7u, 12u, 16u}) {
      const WalkZipf walk(n, s);
      const rng::detail::ZipfCdf& table = rng::detail::zipf_cdf(n, s);
      ASSERT_EQ(table.cdf.size(), n);
      ASSERT_EQ(table.cdf.back(), walk.total);
      for (std::size_t k = 0; k < n; ++k) {
        const double c = table.cdf[k];
        for (const double t : {c, std::nextafter(c, -inf), std::nextafter(c, inf)}) {
          EXPECT_LE(std::abs(t - c), table.band) << "s=" << s << " n=" << n << " k=" << k;
          const auto search = static_cast<std::size_t>(
              std::lower_bound(table.cdf.begin(), table.cdf.end(), t) - table.cdf.begin());
          if (search != walk.rank(t)) ++search_would_differ;
          EXPECT_EQ(rng::detail::zipf_rank(table, t), walk.rank(t))
              << "s=" << s << " n=" << n << " k=" << k << " target=" << t;
        }
        for (const double t : {c - 2.0 * table.band, c + 2.0 * table.band}) {
          EXPECT_EQ(rng::detail::zipf_rank(table, t), walk.rank(t))
              << "s=" << s << " n=" << n << " k=" << k << " target=" << t;
        }
      }
      EXPECT_EQ(rng::detail::zipf_rank(table, 0.0), 0u);
    }
  }
  // The grid must contain boundaries where a bare binary search and the walk
  // round to different ranks (s = 0.25 at n >= 10 has several), or the
  // fallback goes untested.
  EXPECT_GT(search_would_differ, 0u);
}

TEST(BoundedParetoShape, LongMedianAchievableWithWideBounds) {
  // Regression: medians above sqrt(lo*hi) are unreachable (the bisection
  // degenerated silently); with adequate bounds they must solve exactly.
  const double lo = 300.0;                  // 5 min
  const double target = 240.0 * 60.0;       // 240 min
  const double hi = 10.0 * target * target / lo;
  const double alpha = rng::bounded_pareto_shape_for_median(lo, hi, target);
  EXPECT_GT(alpha, 1e-4);
  EXPECT_NEAR(rng::bounded_pareto_median(alpha, lo, hi), target, 1.0);
}

// Property sweep: below(n) never returns >= n across magnitudes.
class BelowRange : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BelowRange, NeverOutOfRange) {
  rng::Stream s(GetParam() * 31 + 7);
  const std::uint64_t n = GetParam();
  for (int i = 0; i < 5000; ++i) EXPECT_LT(s.below(n), n);
}

INSTANTIATE_TEST_SUITE_P(Ranges, BelowRange,
                         ::testing::Values(1ULL, 2ULL, 3ULL, 7ULL, 64ULL, 1000ULL, 1ULL << 32,
                                           (1ULL << 63) + 12345ULL));
