// Churn model: session times, offline gaps, joins and final departures.
//
// Per the paper (§3) session times follow a Pareto distribution with a
// median of 60 minutes (after Saroiu et al.'s measurement study), and node
// joins are a Poisson process. A node's *availability* is the ratio of the
// sum of its session times to its lifetime (first entry -> final departure),
// following Rhea et al. (§2.1).
#pragma once

#include "sim/rng.hpp"
#include "sim/types.hpp"

namespace p2panon::net {

struct ChurnConfig {
  /// Mean inter-arrival time of initial node joins (Poisson process).
  sim::Time join_interarrival_mean = sim::minutes(1.0);
  /// Median session time (Pareto). Paper: 60 minutes.
  sim::Time session_median = sim::minutes(60.0);
  /// Pareto scale (minimum session length).
  sim::Time session_min = sim::minutes(5.0);
  /// Cap on a single session (bounded Pareto upper edge).
  sim::Time session_max = sim::hours(24.0);
  /// Mean offline gap between sessions (exponential).
  sim::Time offline_gap_mean = sim::minutes(30.0);
  /// Probability that a leave is a *final* departure (free-riding exit).
  double departure_probability = 0.1;
};

/// Draws churn-process variates from a dedicated RNG stream.
class ChurnProcess {
 public:
  ChurnProcess(const ChurnConfig& cfg, sim::rng::Stream stream) noexcept;

  /// Delay from the previous join to the next initial join.
  [[nodiscard]] sim::Time next_join_gap() noexcept;

  /// One session duration (bounded Pareto, median == cfg.session_median).
  [[nodiscard]] sim::Time session_length() noexcept;

  /// One offline gap between two sessions of the same node.
  [[nodiscard]] sim::Time offline_gap() noexcept;

  /// Whether this leave is the node's final departure.
  [[nodiscard]] bool is_final_departure() noexcept;

  [[nodiscard]] const ChurnConfig& config() const noexcept { return cfg_; }

 private:
  ChurnConfig cfg_;
  sim::rng::Stream stream_;
  double shape_;
};

/// Ground-truth availability bookkeeping for a single node.
///
/// Robust to out-of-order driving: a join while online and a leave while
/// offline are ignored (the first event of each kind wins), so forced
/// transitions and fault injection cannot corrupt the accounting.
class AvailabilityTracker {
 public:
  void on_join(sim::Time now) noexcept;
  void on_leave(sim::Time now) noexcept;

  /// Availability = total session time / lifetime, evaluated at `now`
  /// (lifetime extends to `now` if the node has not finally departed).
  [[nodiscard]] double availability(sim::Time now) const noexcept;

  [[nodiscard]] bool ever_joined() const noexcept { return first_join_ >= 0.0; }
  [[nodiscard]] bool online() const noexcept { return session_start_ >= 0.0; }
  [[nodiscard]] sim::Time total_session_time(sim::Time now) const noexcept;

  /// Time of the most recent leave (graceful or crash); -1 if none yet.
  /// Ground truth for the time-to-detect metric: detection delay is
  /// "detector noticed at t" minus this.
  [[nodiscard]] sim::Time last_leave() const noexcept { return last_leave_; }

 private:
  sim::Time first_join_ = -1.0;
  sim::Time session_start_ = -1.0;  // >= 0 while online
  sim::Time accumulated_ = 0.0;
  sim::Time last_leave_ = -1.0;
};

}  // namespace p2panon::net
