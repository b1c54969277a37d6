#include "sim/rng.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <unordered_map>

namespace p2panon::sim::rng {

std::uint64_t Stream::below(std::uint64_t n) noexcept {
  assert(n > 0);
  // Lemire's nearly-divisionless unbiased bounded generation.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = (~n + 1) % n;  // (2^64 - n) mod n
    while (lo < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Stream::exponential(double rate) noexcept {
  assert(rate > 0.0);
  // Avoid log(0): next_double() is in [0,1), so 1-u is in (0,1].
  return -std::log(1.0 - next_double()) / rate;
}

double Stream::pareto(double alpha, double xm) noexcept {
  assert(alpha > 0.0 && xm > 0.0);
  const double u = 1.0 - next_double();  // (0, 1]
  return xm / std::pow(u, 1.0 / alpha);
}

double Stream::bounded_pareto(double alpha, double lo, double hi) noexcept {
  assert(alpha > 0.0 && 0.0 < lo && lo < hi);
  // Inverse CDF of the bounded Pareto on [lo, hi].
  const double u = next_double();
  const double la = std::pow(lo, alpha);
  const double ha = std::pow(hi, alpha);
  const double x = -(u * ha - u * la - ha) / (ha * la);
  return std::pow(1.0 / x, 1.0 / alpha);
}

double Stream::normal(double mean, double stddev) noexcept {
  // Box-Muller, discarding the second variate to keep stream usage
  // position-independent (one draw pair per call).
  double u1 = 1.0 - next_double();  // (0,1]
  double u2 = next_double();
  double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  return mean + stddev * z;
}

namespace detail {

namespace {

/// ZipfCdf::band in units of the rounding bound n * eps * total.
constexpr double kZipfGuardFactor = 2.0;

/// Zipf weight of rank k. The table build and the subtract walk below must
/// call it with the same arguments so both see the same doubles.
double zipf_weight(std::size_t k, double s) noexcept {
  return std::pow(static_cast<double>(k + 1), -s);
}

/// The sequential inverse-CDF walk: subtract the weights from the target in
/// rank order and return the first rank that takes it to <= 0. Its rounding
/// defines the exact rank every draw must return.
std::size_t zipf_walk(std::size_t n, double s, double target) noexcept {
  for (std::size_t k = 0; k < n; ++k) {
    target -= zipf_weight(k, s);
    if (target <= 0.0) return k;
  }
  return n - 1;  // floating-point slack
}

}  // namespace

const ZipfCdf& zipf_cdf(std::size_t n, double s) {
  thread_local ZipfCdf table;
  if (table.n != n || table.s != s) {
    table.n = n;
    table.s = s;
    table.cdf.resize(n);
    double sum = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      sum += zipf_weight(k, s);
      table.cdf[k] = sum;
    }
    table.band = kZipfGuardFactor * static_cast<double>(n) *
                 std::numeric_limits<double>::epsilon() * sum;
  }
  return table;
}

std::size_t zipf_rank(const ZipfCdf& table, double target) noexcept {
  const std::vector<double>& cdf = table.cdf;
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), target);
  if (it != cdf.end()) {
    const auto k = static_cast<std::size_t>(it - cdf.begin());
    const bool clear_above = *it - target > table.band;
    const bool clear_below = k == 0 || target - cdf[k - 1] > table.band;
    if (clear_above && clear_below) return k;
  }
  return zipf_walk(table.n, table.s, target);
}

}  // namespace detail

std::size_t Stream::zipf(std::size_t n, double s) noexcept {
  assert(n > 0 && s >= 0.0);
  if (n == 1) return 0;
  const detail::ZipfCdf& table = detail::zipf_cdf(n, s);
  return detail::zipf_rank(table, next_double() * table.cdf.back());
}

std::vector<std::size_t> Stream::sample_indices(std::size_t n, std::size_t k) noexcept {
  assert(k <= n);
  // Partial Fisher-Yates over the virtual identity array [0, n): only the
  // positions a swap displaced are stored. Step i swaps position i with a
  // position j >= i and never touches position i again, so position i's
  // value is final the moment it is read. The map is only looked up, never
  // iterated, so its order cannot leak into the result.
  std::unordered_map<std::size_t, std::size_t> displaced;
  displaced.reserve(2 * k);
  const auto value_at = [&displaced](std::size_t pos) {
    const auto it = displaced.find(pos);
    return it == displaced.end() ? pos : it->second;
  };
  std::vector<std::size_t> picks(k);
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(below(n - i));
    const std::size_t at_i = value_at(i);
    picks[i] = value_at(j);
    displaced[j] = at_i;
  }
  return picks;
}

double pareto_shape_for_median(double xm, double median) noexcept {
  assert(median > xm && xm > 0.0);
  // median = xm * 2^(1/alpha)  =>  alpha = ln 2 / ln(median / xm)
  return std::log(2.0) / std::log(median / xm);
}

double bounded_pareto_median(double alpha, double lo, double hi) noexcept {
  assert(alpha > 0.0 && 0.0 < lo && lo < hi);
  // CDF F(x) = (1 - (lo/x)^a) / (1 - (lo/hi)^a); F(m) = 1/2 gives
  // (lo/m)^a = (1 + r) / 2 with r = (lo/hi)^a.
  const double r = std::pow(lo / hi, alpha);
  return lo * std::pow((1.0 + r) / 2.0, -1.0 / alpha);
}

double bounded_pareto_median_ceiling(double lo, double hi) noexcept {
  return std::sqrt(lo * hi);
}

double bounded_pareto_shape_for_median(double lo, double hi, double median) noexcept {
  assert(0.0 < lo && lo < median && median < hi);
  // Requesting the ceiling or more silently degenerates, so reject it loudly.
  assert(median < bounded_pareto_median_ceiling(lo, hi) &&
         "median unreachable: raise the bounded-Pareto upper bound");
  // The bounded median is strictly decreasing in alpha: bisect.
  double a_lo = 1e-6, a_hi = 64.0;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (a_lo + a_hi);
    if (bounded_pareto_median(mid, lo, hi) > median) {
      a_lo = mid;
    } else {
      a_hi = mid;
    }
  }
  return 0.5 * (a_lo + a_hi);
}

}  // namespace p2panon::sim::rng
