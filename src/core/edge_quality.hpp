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
// edge scores above that final edge. Position::edges_at_most_direct() states
// when this holds for every edge out of one node, so a lookahead whose last
// step could only ever pick direct delivery may skip scoring the edges of
// that step.
//
// A decision scores many edges out of one position: node s, holding
// connection k of a pair with a given predecessor. position() resolves that
// position once — s's profile and its stored-entry count at (pair,
// predecessor) — and Position::quality() scores each successor from it.
// When the count is zero, sigma is exactly +0.0 toward every successor (the
// empty-position rule), so quality() skips the per-successor history probe;
// otherwise it probes as edge_quality() does. Both blend sigma and alpha in
// one function, so the two agree bitwise.
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
        weights_at_most_one_(weights.at_most_one()) {}
  /// Over the serial engine's estimator.
  EdgeQualityEvaluator(const net::ProbingEstimator& probing, const HistoryStore& history,
                       QualityWeights weights,
                       const SuspicionTracker* suspicion = nullptr) noexcept
      : EdgeQualityEvaluator(probing.estimator(), history, weights, suspicion) {}

  [[nodiscard]] const QualityWeights& weights() const noexcept { return weights_; }
  [[nodiscard]] const HistoryStore& history() const noexcept { return history_; }

  /// The edges out of node s for connection k of `pair`, with s's current
  /// predecessor `predecessor` and responder R: one history lookup serves
  /// every successor s scores from there.
  class Position {
   public:
    /// q(s, v) — bitwise edge_quality(s, v, R, pair, predecessor, k).
    [[nodiscard]] double quality(net::NodeId v) const {
      if (v == responder_) return 1.0;  // last edge always has quality 1
      const double sigma =
          count_ == 0 ? 0.0 : profile_->selectivity(pair_, predecessor_, v, k_);
      return eval_->blend(s_, v, sigma);
    }

    /// Entries s stores at (pair, predecessor), over all successors. Zero
    /// means sigma is +0.0 toward every successor.
    [[nodiscard]] std::size_t count() const noexcept { return count_; }

    /// Whether no edge out of the position scores above 1, the quality of
    /// direct delivery. Holds when w_s, w_a >= 0 with w_s + w_a <= 1 and
    /// sigma <= 1 toward every successor (k <= 1, or at most k - 1 stored
    /// entries at the position); alpha and the suspicion factor lie in
    /// [0, 1] by construction. Rounding is monotone, so
    /// fl(fl(w_s * sigma) + fl(w_a * alpha)) <= fl(w_s + w_a) <= 1, with or
    /// without FMA: quality() then never exceeds 1.0 either.
    [[nodiscard]] bool edges_at_most_direct() const noexcept {
      return eval_->weights_at_most_one_ && (k_ <= 1 || count_ <= k_ - 1);
    }

   private:
    friend class EdgeQualityEvaluator;
    Position(const EdgeQualityEvaluator& eval, net::NodeId s, net::NodeId responder,
             net::PairId pair, net::NodeId predecessor, std::uint32_t k)
        : eval_(&eval),
          profile_(&eval.history_.at(s)),
          s_(s),
          responder_(responder),
          pair_(pair),
          predecessor_(predecessor),
          k_(k),
          count_(profile_->position_count(pair, predecessor)) {}

    const EdgeQualityEvaluator* eval_;
    const HistoryProfile* profile_;
    net::NodeId s_;
    net::NodeId responder_;
    net::PairId pair_;
    net::NodeId predecessor_;
    std::uint32_t k_;
    std::size_t count_;
  };

  /// Resolve s's position for scoring its outgoing edges (see Position).
  [[nodiscard]] Position position(net::NodeId s, net::NodeId responder, net::PairId pair,
                                  net::NodeId predecessor, std::uint32_t k) const {
    return Position(*this, s, responder, pair, predecessor, k);
  }

  /// q(s, v) when s (whose current predecessor on the path is `predecessor`)
  /// considers forwarding connection k of `pair` to v, with responder R.
  /// One edge; a caller scoring several edges out of s uses position().
  [[nodiscard]] double edge_quality(net::NodeId s, net::NodeId v, net::NodeId responder,
                                    net::PairId pair, net::NodeId predecessor,
                                    std::uint32_t k) const {
    if (v == responder) return 1.0;  // last edge always has quality 1
    return blend(s, v, history_.at(s).selectivity(pair, predecessor, v, k));
  }

  /// Quality of a full path (node sequence initiator..responder): the sum of
  /// the qualities of its edges, evaluated with each hop's actual
  /// predecessor.
  [[nodiscard]] double path_quality(std::span<const net::NodeId> path, net::PairId pair,
                                    std::uint32_t k) const;

 private:
  /// w_s * sigma + w_a * alpha_s(v): the one scoring formula.
  [[nodiscard]] double blend(net::NodeId s, net::NodeId v, double sigma) const {
    double alpha = probing_.availability_of(s, v);
    if (suspicion_ != nullptr) alpha *= suspicion_->availability_factor(v);
    return weights_.w_selectivity * sigma + weights_.w_availability * alpha;
  }

  const net::ShardedProbing& probing_;
  const HistoryStore& history_;
  QualityWeights weights_;
  const SuspicionTracker* suspicion_;
  bool weights_at_most_one_;  ///< QualityWeights::at_most_one()
};

}  // namespace p2panon::core
