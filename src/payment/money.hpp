// Monetary amounts for the payment substrate.
//
// The payment system does exact integer accounting in milli-credits so that
// settlement conservation (escrow in == payouts + refund) holds to the last
// unit. The simulation's utility arithmetic stays in doubles; conversion
// happens at the payment boundary.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace p2panon::payment {

/// Milli-credits. 1 credit == 1000 Amount units.
using Amount = std::int64_t;

[[nodiscard]] inline Amount from_credits(double credits) noexcept {
  return static_cast<Amount>(std::llround(credits * 1000.0));
}

[[nodiscard]] inline double to_credits(Amount a) noexcept {
  return static_cast<double>(a) / 1000.0;
}

/// `total` in `parts` near-equal integer shares that sum exactly to `total`
/// (largest-remainder method: the first total%parts shares get one extra
/// unit). The rule of the routing-benefit split P_r / ||pi||.
struct EvenSplit {
  Amount base = 0;
  std::size_t larger = 0;  ///< shares that carry base + 1

  /// Share `i` (0-based) of the split.
  [[nodiscard]] constexpr Amount share(std::size_t i) const noexcept {
    return base + (i < larger ? 1 : 0);
  }
};

[[nodiscard]] constexpr EvenSplit even_split(Amount total, std::size_t parts) noexcept {
  if (parts == 0) return {};
  const Amount base = total / static_cast<Amount>(parts);
  return {base, static_cast<std::size_t>(total - base * static_cast<Amount>(parts))};
}

/// Every share of even_split(total, parts), in order.
[[nodiscard]] inline std::vector<Amount> split_evenly(Amount total, std::size_t parts) {
  const EvenSplit split = even_split(total, parts);
  std::vector<Amount> shares(parts);
  for (std::size_t i = 0; i < parts; ++i) shares[i] = split.share(i);
  return shares;
}

}  // namespace p2panon::payment
