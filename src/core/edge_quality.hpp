// Edge-quality evaluation (paper §2.3).
//
//   q(s, v) = w_s * sigma(s, v) + w_a * alpha_s(v)
//
// where sigma is the history selectivity of the edge for the current
// connection set and predecessor position, and alpha_s(v) is s's locally
// probed availability estimate of v. The final edge into the responder
// always has quality 1. Path quality is the sum of its edge qualities.
//
// Under the paper's weights (w_s + w_a = 1) with sigma, alpha in [0, 1], no
// edge scores above that final edge. edges_at_most_direct() states when this
// holds for every edge out of one node, so a lookahead whose last step could
// only ever pick direct delivery may skip scoring the edges of that step.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "core/contract.hpp"
#include "core/history.hpp"
#include "core/suspicion.hpp"
#include "net/ids.hpp"
#include "net/probing.hpp"

namespace p2panon::core {

class EdgeQualityEvaluator {
 public:
  /// `suspicion` (optional) folds the timeout-driven suspect penalty into
  /// the availability term; nullptr reproduces the fault-free quality
  /// bitwise (the multiplier is then exactly 1 and never computed).
  EdgeQualityEvaluator(const net::ShardedProbing& probing, const HistoryStore& history,
                       QualityWeights weights,
                       const SuspicionTracker* suspicion = nullptr) noexcept
      : probing_(probing),
        history_(history),
        weights_(weights),
        suspicion_(suspicion),
        weights_at_most_one_(weights.w_selectivity >= 0.0 && weights.w_availability >= 0.0 &&
                             weights.w_selectivity + weights.w_availability <= 1.0) {}
  /// Over the serial engine's estimator.
  EdgeQualityEvaluator(const net::ProbingEstimator& probing, const HistoryStore& history,
                       QualityWeights weights,
                       const SuspicionTracker* suspicion = nullptr) noexcept
      : EdgeQualityEvaluator(probing.estimator(), history, weights, suspicion) {}

  [[nodiscard]] const QualityWeights& weights() const noexcept { return weights_; }
  [[nodiscard]] const HistoryStore& history() const noexcept { return history_; }

  /// Whether no edge out of s scores above 1, the quality of direct
  /// delivery, for connection k, given `position_count` =
  /// history().at(s).position_count(pair, predecessor). Holds when
  /// w_s, w_a >= 0 with w_s + w_a <= 1 and sigma <= 1 toward every successor
  /// (k <= 1, or at most k - 1 stored entries at the position); alpha and the
  /// suspicion factor lie in [0, 1] by construction. Rounding is monotone,
  /// so fl(fl(w_s * sigma) + fl(w_a * alpha)) <= fl(w_s + w_a) <= 1, with or
  /// without FMA: edge_quality() then never exceeds 1.0 either.
  [[nodiscard]] bool edges_at_most_direct(std::size_t position_count,
                                          std::uint32_t k) const noexcept {
    return weights_at_most_one_ && (k <= 1 || position_count <= k - 1);
  }

  /// q(s, v) when s (whose current predecessor on the path is `predecessor`)
  /// considers forwarding connection k of `pair` to v, with responder R.
  [[nodiscard]] double edge_quality(net::NodeId s, net::NodeId v, net::NodeId responder,
                                    net::PairId pair, net::NodeId predecessor,
                                    std::uint32_t k) const {
    if (v == responder) return 1.0;  // last edge always has quality 1
    const double sigma = history_.at(s).selectivity(pair, predecessor, v, k);
    double alpha = probing_.availability_of(s, v);
    if (suspicion_ != nullptr) alpha *= suspicion_->availability_factor(v);
    return weights_.w_selectivity * sigma + weights_.w_availability * alpha;
  }

  /// Quality of a full path (node sequence initiator..responder): the sum of
  /// the qualities of its edges, evaluated with each hop's actual
  /// predecessor.
  [[nodiscard]] double path_quality(std::span<const net::NodeId> path, net::PairId pair,
                                    std::uint32_t k) const;

 private:
  const net::ShardedProbing& probing_;
  const HistoryStore& history_;
  QualityWeights weights_;
  const SuspicionTracker* suspicion_;
  bool weights_at_most_one_;  ///< w_s, w_a >= 0 and w_s + w_a <= 1
};

}  // namespace p2panon::core
