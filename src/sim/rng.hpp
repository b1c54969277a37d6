// Deterministic, stream-splittable random number generation.
//
// Every stochastic element of the simulation draws from a named Stream keyed
// by (root seed, purpose tag, entity id, replicate id). Streams are cheap
// value types; two streams derived with the same key sequence produce the
// same values regardless of construction order or thread, which makes the
// parallel Monte-Carlo replication layer bitwise-deterministic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace p2panon::sim::rng {

/// SplitMix64 step: the de-facto standard 64-bit mixing function
/// (Steele, Lea, Flood: "Fast splittable pseudorandom number generators").
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Stateless 64-bit finaliser (SplitMix64's avalanche function). Applied
/// between key-derivation steps so that derivations cannot cancel: a plain
/// XOR chain would make child("a", i).child("b", i) independent of i.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// FNV-1a over a string, used to derive sub-stream keys from purpose tags.
[[nodiscard]] constexpr std::uint64_t hash_tag(std::string_view tag) noexcept {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (char c : tag) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

/// A splittable deterministic PRNG stream (xoshiro256** core seeded via
/// SplitMix64). Satisfies UniformRandomBitGenerator so it can also be used
/// with <random> adaptors when convenient.
class Stream {
 public:
  using result_type = std::uint64_t;

  /// Root stream for a given seed.
  explicit Stream(std::uint64_t seed) noexcept { reseed(seed); }

  /// Derive a child stream. Children with distinct (tag, id) pairs are
  /// statistically independent of the parent and of each other.
  [[nodiscard]] Stream child(std::string_view tag, std::uint64_t id = 0) const noexcept {
    std::uint64_t k = mix64(key_ ^ (hash_tag(tag) * 0x9E3779B97F4A7C15ULL));
    k = mix64(k ^ (id + 0xD1B54A32D192ED03ULL) * 0xEB44ACCAB455D165ULL);
    return Stream(k);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  result_type operator()() noexcept { return next_u64(); }

  std::uint64_t next_u64() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double next_double() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * next_double();
  }

  /// Uniform integer in [0, n). n must be > 0. Uses Lemire's method.
  std::uint64_t below(std::uint64_t n) noexcept;

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
    return lo + static_cast<std::int64_t>(below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p) noexcept { return next_double() < p; }

  /// Exponential variate with the given rate (mean 1/rate).
  double exponential(double rate) noexcept;

  /// Bounded Pareto variate on [lo, hi] with shape alpha.
  double bounded_pareto(double alpha, double lo, double hi) noexcept;

  /// Pareto (Lomax-free classic form x >= xm) with shape alpha.
  double pareto(double alpha, double xm) noexcept;

  /// Normal variate via Box-Muller (no cached spare: deterministic stream use).
  double normal(double mean, double stddev) noexcept;

  /// Zipf-distributed rank in [0, n): P(k) proportional to 1/(k+1)^s.
  /// s = 0 degenerates to uniform. Consumes one next_double() (none when
  /// n == 1). The first draw for a given (n, s) on a thread builds the CDF
  /// in O(n); later draws are an O(log n) search (see detail::zipf_rank).
  std::size_t zipf(std::size_t n, double s) noexcept;

  /// Fisher-Yates shuffle of a vector.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Sample k distinct indices from [0, n) (k <= n), in random order: the
  /// first k slots of a partial Fisher-Yates shuffle of [0, n), drawing
  /// below(n - i) at step i. O(k) time and memory, independent of n.
  [[nodiscard]] std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k) noexcept;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  void reseed(std::uint64_t seed) noexcept {
    key_ = seed;
    std::uint64_t sm = seed;
    for (auto& s : s_) s = splitmix64(sm);
    // xoshiro must not start in the all-zero state.
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 0x9E3779B97F4A7C15ULL;
  }

  std::uint64_t key_ = 0;  // derivation key, preserved for child()
  std::uint64_t s_[4] = {};
};

namespace detail {

/// Prefix sums of the Zipf weights w_k = 1/(k+1)^s for one (n, s), added in
/// rank order: cdf[k] = fl(cdf[k-1] + w_k), so cdf.back() is bit for bit the
/// sequential total a walk over the weights would compute.
struct ZipfCdf {
  std::size_t n = 0;
  double s = 0.0;
  std::vector<double> cdf;
  /// A target closer than this to a CDF boundary may round to the other
  /// side of it in the subtract walk, so zipf_rank falls back to the walk.
  ///
  /// Why the band is wide enough: the walk computes R_k = target - w_0 - ...
  /// - w_k with k + 1 rounded subtractions; the table computes cdf[k] with k
  /// rounded additions. Every intermediate is at most `total` in magnitude
  /// (the walk stops at the first R_k <= 0, and w_k <= w_0 = 1 <= total), so
  /// each rounding moves its value by at most (eps / 2) * total. R_k and
  /// target - cdf[k] therefore differ by at most (2k + 1) * (eps / 2) *
  /// total < n * eps * total for every k < n. When target is farther than
  /// that from both cdf[k - 1] and cdf[k], the walk sees the same signs as
  /// the search and returns the same k. The band is twice that bound, for
  /// margin; subnormal weights (large s) add only absolute errors far below
  /// it since total >= 1.
  double band = 0.0;
};

/// The CDF table for (n, s), n >= 1, kept in a one-entry thread_local cache:
/// rebuilt in O(n) when (n, s) differs from this thread's previous call, so
/// threads never share it. The reference stays valid until this thread
/// asks for a different (n, s).
[[nodiscard]] const ZipfCdf& zipf_cdf(std::size_t n, double s);

/// The u -> rank step of Stream::zipf for target = u * cdf.back(): the
/// smallest k with target <= cdf[k], found by binary search; inside the
/// guard band of a boundary, the sequential subtract walk decides instead.
/// Either way the result equals the walk's bit for bit.
[[nodiscard]] std::size_t zipf_rank(const ZipfCdf& table, double target) noexcept;

}  // namespace detail

/// Pareto shape parameter such that the *median* of the classic Pareto
/// distribution (scale xm) equals the requested median: median = xm * 2^(1/a).
[[nodiscard]] double pareto_shape_for_median(double xm, double median) noexcept;

/// Analytic median of the bounded Pareto on [lo, hi] with shape alpha.
[[nodiscard]] double bounded_pareto_median(double alpha, double lo, double hi) noexcept;

/// Supremum of the medians a bounded Pareto on [lo, hi] can have: as
/// alpha -> 0 it tends to log-uniform, whose median is sqrt(lo * hi).
[[nodiscard]] double bounded_pareto_median_ceiling(double lo, double hi) noexcept;

/// Shape parameter such that the *bounded* Pareto on [lo, hi] has the
/// requested median (truncation shifts the median, so the unbounded formula
/// does not apply). Solved by bisection. Requires 0 < lo < hi and
/// lo < median < bounded_pareto_median_ceiling(lo, hi).
[[nodiscard]] double bounded_pareto_shape_for_median(double lo, double hi,
                                                     double median) noexcept;

}  // namespace p2panon::sim::rng
