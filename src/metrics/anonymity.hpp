// Anonymity quantification.
//
// The paper uses an abstract decreasing function A(||pi||) to value the
// anonymity an initiator obtains from a forwarder set of size ||pi|| (Eq. 2),
// citing the entropy-based literature [17] for quantification. We provide:
//   * entropy / normalised-entropy anonymity of an attacker's probability
//     assignment over candidate initiators (Serjantov-Danezis / Diaz et al.
//     style), used by the intersection-attack analyses, and
//   * a family of concrete A(.) functionals for the initiator utility, with
//     the shape exposed as a parameter so the ablation bench can verify the
//     paper's conclusions are insensitive to it.
#pragma once

#include <cstddef>
#include <span>

namespace p2panon::metrics {

/// Shannon entropy (bits) of a probability vector. Entries must be
/// non-negative; they are normalised internally, zero entries contribute 0.
[[nodiscard]] double shannon_entropy_bits(std::span<const double> probabilities) noexcept;

/// Degree of anonymity d = H(X) / log2(N) per Diaz et al.; 0 when N < 2.
[[nodiscard]] double degree_of_anonymity(std::span<const double> probabilities) noexcept;

/// Effective anonymity-set size 2^H — the number of equiprobable candidates
/// that would produce the observed entropy.
[[nodiscard]] double effective_set_size(std::span<const double> probabilities) noexcept;

/// Concrete functional forms for A(||pi||) in the initiator utility
/// U_I = A(||pi||) - ||pi||*P_f - P_r. All are positive and strictly
/// decreasing in the forwarder-set size, as the paper requires.
enum class AnonymityFunctional {
  kExponentialDecay,  // A(x) = scale * exp(-x / lambda)
  kInverse,           // A(x) = scale / (1 + x / lambda)
  kLinearClamped,     // A(x) = max(0, scale * (1 - x / lambda))
};

struct AnonymityValuation {
  AnonymityFunctional form = AnonymityFunctional::kExponentialDecay;
  double scale = 10000.0;  // value of perfect anonymity (forwarder set -> 0)
  double lambda = 20.0;    // decay scale in forwarder-set-size units

  /// Evaluate A(set_size).
  [[nodiscard]] double operator()(double set_size) const noexcept;
};

/// Initiator utility U_I = A(||pi||) - ||pi||*P_f - P_r (paper Eq. 2).
[[nodiscard]] double initiator_utility(const AnonymityValuation& a, double forwarder_set_size,
                                       double p_f, double p_r) noexcept;

}  // namespace p2panon::metrics
