// Forwarding contracts (paper §2.2).
//
// When an initiator opens a recurring connection set pi to a responder it
// commits to pay every forwarder P_f per forwarding instance (the
// *forwarding benefit*, inducing availability) plus a total P_r shared by
// the forwarder set (the *routing benefit*, inducing routing decisions that
// minimise ||pi||). The contract — just (P_f, P_r) — propagates hop by hop,
// so forwarders can evaluate their utility without learning the initiator.
#pragma once

#include <cmath>
#include <cstdint>
#include <optional>
#include <string_view>

#include "sim/types.hpp"

namespace p2panon::core {

/// How a path decides to stop growing and deliver to the responder. The
/// paper notes both Crowds-like probabilistic forwarding and hop-distance
/// based forwarding apply to the model (§2.2).
enum class TerminationPolicy {
  kCrowds,    ///< at each hop, forward with probability p_forward else deliver
  kHopCount,  ///< forward until ttl_hops forwarders are on the path
};

struct Contract {
  double forwarding_benefit = 75.0;  ///< P_f, paper: U[50, 100]
  double tau = 2.0;                  ///< P_r = tau * P_f, paper: {0.5, 1, 2, 4}

  TerminationPolicy termination = TerminationPolicy::kCrowds;
  double p_forward = 0.75;  ///< Crowds forwarding probability
  std::uint32_t ttl_hops = 4;  ///< hop-distance bound when kHopCount

  [[nodiscard]] double routing_benefit() const noexcept { return tau * forwarding_benefit; }

  /// Expected number of forwarders on one path. Crowds: the first hop is
  /// unconditional and each subsequent forward happens with p_forward, so
  /// the forwarder count is geometric with mean 1/(1-p).
  [[nodiscard]] double expected_path_length() const noexcept {
    return termination == TerminationPolicy::kCrowds ? 1.0 / (1.0 - p_forward)
                                                     : static_cast<double>(ttl_hops);
  }
};

/// Edge-quality weights (paper §2.3): q(s,v) = w_s * sigma(s,v) + w_a *
/// alpha_s(v), with w_s + w_a = 1. Higher w_a favours stable (available)
/// forwarders for future connections; higher w_s favours past history.
struct QualityWeights {
  double w_selectivity = 0.5;  ///< w_s (paper default 0.5)
  double w_availability = 0.5; ///< w_a (paper default 0.5)

  /// How far w_s + w_a may lie from 1 (rounding of a 1 - w split only).
  static constexpr double kSumTolerance = 1e-12;

  /// The first simplex rule these weights break, by member, or nullopt when
  /// they are on the simplex: w_s >= 0, w_a >= 0, |w_s + w_a - 1| <=
  /// kSumTolerance (NaN breaks each rule it reaches).
  struct Violation {
    std::string_view member;  ///< "w_selectivity", "w_availability" or their sum
    double value;
    std::string_view rule;
  };
  [[nodiscard]] std::optional<Violation> violation() const noexcept {
    if (!(w_selectivity >= 0.0)) return Violation{"w_selectivity", w_selectivity, "at least 0"};
    if (!(w_availability >= 0.0)) return Violation{"w_availability", w_availability, "at least 0"};
    const double sum = w_selectivity + w_availability;
    if (!(std::abs(sum - 1.0) <= kSumTolerance)) {
      return Violation{"w_selectivity + w_availability", sum, "1 (within 1e-12)"};
    }
    return std::nullopt;
  }
  [[nodiscard]] bool valid() const noexcept { return !violation(); }

  /// w_s, w_a >= 0 and fl(w_s + w_a) <= 1: with sigma and alpha in [0, 1]
  /// no blended quality exceeds 1 (the lookahead's direct-delivery bound
  /// rests on it; a valid pair may still sum a hair above 1).
  [[nodiscard]] bool at_most_one() const noexcept {
    return w_selectivity >= 0.0 && w_availability >= 0.0 &&
           w_selectivity + w_availability <= 1.0;
  }
};

}  // namespace p2panon::core
