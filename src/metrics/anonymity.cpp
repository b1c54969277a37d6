#include "metrics/anonymity.hpp"

#include <cassert>
#include <cmath>

namespace p2panon::metrics {

double shannon_entropy_bits(std::span<const double> probabilities) noexcept {
  double total = 0.0;
  for (double p : probabilities) {
    assert(p >= 0.0);
    total += p;
  }
  if (total <= 0.0) return 0.0;
  double h = 0.0;
  for (double p : probabilities) {
    if (p <= 0.0) continue;
    const double q = p / total;
    h -= q * std::log2(q);
  }
  return h;
}

double degree_of_anonymity(std::span<const double> probabilities) noexcept {
  if (probabilities.size() < 2) return 0.0;
  const double h_max = std::log2(static_cast<double>(probabilities.size()));
  return h_max > 0.0 ? shannon_entropy_bits(probabilities) / h_max : 0.0;
}

double effective_set_size(std::span<const double> probabilities) noexcept {
  return std::exp2(shannon_entropy_bits(probabilities));
}

double anonymity_value(double set_size) noexcept {
  assert(set_size >= 0.0);
  return kAnonymityScale * std::exp(-set_size / kAnonymityDecay);
}

double initiator_utility(double forwarder_set_size, double p_f, double p_r) noexcept {
  return anonymity_value(forwarder_set_size) - forwarder_set_size * p_f - p_r;
}

}  // namespace p2panon::metrics
