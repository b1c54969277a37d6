// Streaming and batch statistics used by the experiment harness.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace p2panon::metrics {

/// Welford streaming accumulator: numerically stable mean/variance.
class Accumulator {
 public:
  /// Bit-exact serialisable state: every double as its IEEE-754 bit
  /// pattern, so a checkpointed accumulator resumes bitwise-identically
  /// (the property the harness's kill-and-resume invariance rests on).
  struct Raw {
    std::uint64_t n = 0;
    std::uint64_t mean_bits = 0;
    std::uint64_t m2_bits = 0;
    std::uint64_t min_bits = 0;
    std::uint64_t max_bits = 0;
  };

  void add(double x) noexcept;

  /// Merge another accumulator (Chan et al. parallel combination).
  void merge(const Accumulator& other) noexcept;

  [[nodiscard]] Raw raw() const noexcept;
  [[nodiscard]] static Accumulator from_raw(const Raw& raw) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 when n < 2.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  /// Standard error of the mean; 0 when n < 2.
  [[nodiscard]] double stderr_mean() const noexcept;
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const noexcept { return n_ ? mean_ * static_cast<double>(n_) : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Two-sided Student-t critical value for the given confidence level
/// (e.g. 0.95) and degrees of freedom. Uses an accurate closed-form
/// approximation (Cornish-Fisher expansion of the normal quantile), exact in
/// the df -> infinity limit and within ~1e-3 of tables for df >= 2.
[[nodiscard]] double t_critical(double confidence, std::size_t df) noexcept;

/// Symmetric confidence-interval half width for a sample mean.
struct ConfidenceInterval {
  double mean = 0.0;
  double half_width = 0.0;  // mean +/- half_width
  [[nodiscard]] double lo() const noexcept { return mean - half_width; }
  [[nodiscard]] double hi() const noexcept { return mean + half_width; }
  [[nodiscard]] bool contains(double x) const noexcept { return lo() <= x && x <= hi(); }
};
[[nodiscard]] ConfidenceInterval confidence_interval(const Accumulator& acc,
                                                     double confidence = 0.95) noexcept;

// --- Sequential stopping (adaptive replication; see DESIGN.md §3.12) -------

/// Hoeffding run planning: the smallest n for which the mean of n i.i.d.
/// samples with range R is within ±eps of its expectation with probability
/// at least 1 - delta:  n = ceil(R² ln(2/delta) / (2 eps²)).
[[nodiscard]] std::size_t hoeffding_plan(double range, double eps, double delta) noexcept;

/// Alpha-spending schedule: the error budget spent at the k-th peek
/// (1-indexed) is alpha / (k (k+1)); the telescoping sum over every k is
/// exactly alpha, so a union bound across all peeks keeps the *anytime*
/// error level at alpha no matter how often the harness looks.
[[nodiscard]] double alpha_spend(double alpha, std::size_t peek) noexcept;

/// Anytime confidence interval at the k-th peek: the Student-t interval at
/// level alpha_spend(alpha, peek) / metrics — alpha split across peeks by
/// the spending schedule and across `metrics` simultaneous targets by a
/// union bound. Valid to act on after *every* batch.
[[nodiscard]] ConfidenceInterval anytime_interval(const Accumulator& acc, double alpha,
                                                  std::size_t peek,
                                                  std::size_t metrics = 1) noexcept;

/// One-sided Hoeffding lower confidence bound on a Bernoulli pass rate
/// after `trials` observations with `passes` successes:
/// p̂ - sqrt(ln(1/delta) / (2 trials)), clamped to [0, 1].
[[nodiscard]] double pass_rate_lower_bound(std::size_t passes, std::size_t trials,
                                           double delta) noexcept;

/// Empirical distribution over a batch of samples: CDF evaluation,
/// percentiles, and fixed-grid CDF series for figure reproduction.
class EmpiricalDistribution {
 public:
  EmpiricalDistribution() = default;
  explicit EmpiricalDistribution(std::vector<double> samples);

  void add(double x);
  /// Sort pending samples; called lazily by const accessors.
  void finalize() const;

  [[nodiscard]] std::size_t count() const noexcept { return samples_.size(); }
  [[nodiscard]] bool empty() const noexcept { return samples_.empty(); }

  /// P(X <= x), 0 on empty.
  [[nodiscard]] double cdf(double x) const;

  /// p-quantile with linear interpolation, p in [0, 1].
  [[nodiscard]] double quantile(double p) const;

  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double mean() const;
  [[nodiscard]] double variance() const;

  /// Evaluate the CDF at `points` evenly spaced values across
  /// [min, max] — the series plotted in the paper's Figures 6-7.
  struct CdfPoint {
    double x;
    double p;
  };
  [[nodiscard]] std::vector<CdfPoint> cdf_series(std::size_t points) const;

  [[nodiscard]] std::span<const double> sorted_samples() const;

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

/// Welch's unequal-variance t-test for the difference of two sample means.
struct WelchResult {
  double t = 0.0;              ///< t statistic (a.mean - b.mean direction)
  double df = 0.0;             ///< Welch-Satterthwaite degrees of freedom
  double critical_95 = 0.0;    ///< two-sided 5% critical value at df
  bool significant_95 = false; ///< |t| > critical_95
};
[[nodiscard]] WelchResult welch_t_test(const Accumulator& a, const Accumulator& b) noexcept;

/// Gini coefficient of a non-negative sample set: 0 = perfectly equal,
/// -> 1 = maximally concentrated. Used for the payoff-skew analyses
/// (the paper's Figs. 6-7 discuss exactly this concentration effect).
/// Samples with negative values are shifted so the minimum is zero.
[[nodiscard]] double gini(std::span<const double> samples);

/// Fixed-bin histogram on [lo, hi); out-of-range samples clamp to edge bins.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x) noexcept;
  [[nodiscard]] std::size_t count(std::size_t bin) const { return counts_.at(bin); }
  [[nodiscard]] std::size_t total() const noexcept { return total_; }
  [[nodiscard]] double bin_lo(std::size_t bin) const noexcept;
  [[nodiscard]] double bin_hi(std::size_t bin) const noexcept;
  /// Fraction of samples in the bin.
  [[nodiscard]] double density(std::size_t bin) const;

 private:
  double lo_, hi_, width_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace p2panon::metrics
