// Anonymity quantification.
//
// The paper uses an abstract decreasing function A(||pi||) to value the
// anonymity an initiator obtains from a forwarder set of size ||pi|| (Eq. 2),
// citing the entropy-based literature [17] for quantification. We provide:
//   * entropy / normalised-entropy anonymity of an attacker's probability
//     assignment over candidate initiators (Serjantov-Danezis / Diaz et al.
//     style), used by the intersection-attack analyses, and
//   * one concrete A(.) for the initiator utility, an exponential decay in
//     the forwarder-set size.
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

/// A(x) = kAnonymityScale * exp(-x / kAnonymityDecay): positive and
/// strictly decreasing in the forwarder-set size x, as the paper requires.
inline constexpr double kAnonymityScale = 10000.0;  ///< A(0), perfect anonymity
inline constexpr double kAnonymityDecay = 20.0;     ///< in forwarder-set-size units

/// A(set_size).
[[nodiscard]] double anonymity_value(double set_size) noexcept;

/// Initiator utility U_I = A(||pi||) - ||pi||*P_f - P_r (paper Eq. 2).
[[nodiscard]] double initiator_utility(double forwarder_set_size, double p_f,
                                       double p_r) noexcept;

}  // namespace p2panon::metrics
