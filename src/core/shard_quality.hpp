// Shard-scoped edge quality.
//
// The serial decision stack scores an edge as
//   q(s, v) = w_s * sigma(s, v) + w_a * alpha_s(v)            (paper §2.3)
// with sigma the history selectivity. At scale the sharded workload keeps
// the same two-term shape but substitutes the history term with the edge's
// observed forwarding success ratio — the quantity the per-connection
// history aggregates toward, maintainable as two flat counters per CSR slot
// with no per-pair state. The availability term is the shard-scoped
// estimator's alpha unchanged.
//
// Ownership/threading contract: all mutable state for node s (its d counter
// slots) is written only by s's owning shard; scoring reads the probing
// columns of s (same shard) and the published liveness snapshot for
// cross-shard neighbours. Nothing here allocates after construction.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/contract.hpp"
#include "net/ids.hpp"
#include "net/sharded_probing.hpp"
#include "net/soa.hpp"

namespace p2panon::core {

class ShardedEdgeQuality {
 public:
  /// All referents must outlive the instance.
  ShardedEdgeQuality(const net::NodeStateSoA& state, const net::ShardPartition& partition,
                     const net::ShardedProbing& probing, QualityWeights weights);

  ShardedEdgeQuality(const ShardedEdgeQuality&) = delete;
  ShardedEdgeQuality& operator=(const ShardedEdgeQuality&) = delete;

  /// s attempted to forward over neighbour slot `slot` of D(s).
  void record_attempt(net::NodeId s, std::size_t slot) { ++attempts_[index(s, slot)]; }
  /// The forward over slot `slot` was acknowledged.
  void record_success(net::NodeId s, std::size_t slot) { ++successes_[index(s, slot)]; }

  /// q(s, slot) = w_s * success_ratio + w_a * alpha_s(slot). The success
  /// ratio before any attempt is the neutral 1/2 (no evidence either way),
  /// mirroring the uniform prior the availability term starts from.
  [[nodiscard]] double score(net::NodeId s, std::size_t slot) const {
    const std::size_t i = index(s, slot);
    const double ratio = attempts_[i] == 0
                             ? 0.5
                             : static_cast<double>(successes_[i]) /
                                   static_cast<double>(attempts_[i]);
    return weights_.w_selectivity * ratio + weights_.w_availability * probing_.availability(s, slot);
  }

  /// Best-scoring neighbour slot of s among those believed alive (live for
  /// same-shard neighbours, published snapshot for cross-shard ones).
  /// Deterministic tie-break: lowest slot wins. Returns degree() when no
  /// neighbour is believed alive.
  [[nodiscard]] std::size_t pick_best(net::NodeId s,
                                      std::span<const std::uint8_t> published_online) const;

  [[nodiscard]] std::uint64_t attempts(net::NodeId s, std::size_t slot) const {
    return attempts_[index(s, slot)];
  }
  [[nodiscard]] std::uint64_t successes(net::NodeId s, std::size_t slot) const {
    return successes_[index(s, slot)];
  }
  [[nodiscard]] const QualityWeights& weights() const noexcept { return weights_; }

 private:
  [[nodiscard]] std::size_t index(net::NodeId s, std::size_t slot) const noexcept {
    return static_cast<std::size_t>(s) * state_.degree + slot;
  }

  const net::NodeStateSoA& state_;
  const net::ShardPartition& partition_;
  const net::ShardedProbing& probing_;
  QualityWeights weights_;
  /// CSR-aligned per-edge evidence, size N * d each.
  std::vector<std::uint32_t> attempts_;
  std::vector<std::uint32_t> successes_;
};

}  // namespace p2panon::core
