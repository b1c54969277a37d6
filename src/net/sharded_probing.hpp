// Shard-scoped availability estimation over SoA node state.
//
// The sharded counterpart of ProbingEstimator (same paper-§2.3 estimator —
// per-period session-time accumulation, rand(0, T) initialisation on first
// sighting, normalised alpha_s(u) = t_s(u) / sum_v t_s(v)) restructured for
// the sharded engine:
//
//   * Session times live in one flat array aligned with the overlay's CSR
//     neighbour table (slot (s, j) of the probing state is slot (s, j) of
//     D(s)) — a probe sweep is a contiguous streaming walk, no hashing.
//   * All mutable state for node s is written only by s's owning shard, so
//     concurrent windows need no synchronisation.
//   * Liveness reads respect the window contract: a same-shard neighbour is
//     read live, a cross-shard neighbour through the liveness snapshot
//     published at the last window barrier. At K = 1 every neighbour is
//     same-shard and the estimator degenerates to fully-live reads — the
//     serial-oracle identity the equivalence tests pin.
//
// Epoch contract (mirrors ProbingEstimator::epoch): probe_epoch_[s] is
// bumped by every mutation that any alpha_s(.) depends on — a probe sweep of
// s. Equal epochs guarantee bit-identical availability answers for s.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/soa.hpp"
#include "sim/rng.hpp"
#include "sim/types.hpp"

namespace p2panon::net {

class ShardedProbing {
 public:
  /// Sentinel for "neighbour never observed alive" (session times are
  /// otherwise >= 0).
  static constexpr double kNeverObserved = -1.0;

  /// `state` and `partition` must outlive the estimator. `stream` is only
  /// used through const child() derivations, so probes of distinct nodes may
  /// run concurrently on distinct shards.
  ShardedProbing(const NodeStateSoA& state, const ShardPartition& partition,
                 sim::Time period, sim::rng::Stream stream);

  ShardedProbing(const ShardedProbing&) = delete;
  ShardedProbing& operator=(const ShardedProbing&) = delete;

  /// One probing period for node s: walk D(s) once, accumulate session time
  /// for neighbours observed alive, refresh the cached denominator. Must be
  /// called on s's owning shard. `published_online` is the last-barrier
  /// liveness snapshot (size N) consulted for cross-shard neighbours.
  void probe(NodeId s, std::span<const std::uint8_t> published_online);

  /// alpha_s(u) addressed by neighbour slot j in D(s). Uniform 1/d prior
  /// before any observation; 0 for a never-observed neighbour once any
  /// other accumulated.
  [[nodiscard]] double availability(NodeId s, std::size_t slot) const;

  [[nodiscard]] std::uint64_t epoch(NodeId s) const { return probe_epoch_[s]; }
  [[nodiscard]] sim::Time observed_session_time(NodeId s, std::size_t slot) const {
    const double t = session_time_[static_cast<std::size_t>(s) * state_.degree + slot];
    return t < 0.0 ? 0.0 : t;
  }
  [[nodiscard]] sim::Time period() const noexcept { return period_; }

  /// Probes performed by all nodes (counted per shard, so concurrent
  /// windows never contend on one counter).
  [[nodiscard]] std::uint64_t probes_performed() const;

 private:
  const NodeStateSoA& state_;
  const ShardPartition& partition_;
  sim::Time period_;
  sim::rng::Stream stream_;
  /// t_s(u) by CSR slot, size N * d; kNeverObserved until first sighting.
  std::vector<double> session_time_;
  /// avail_total_[s] = sum over observed slots of D(s) — the alpha
  /// denominator, maintained at the same mutation points that bump
  /// probe_epoch_[s].
  std::vector<double> avail_total_;
  std::vector<std::uint64_t> probe_epoch_;
  std::vector<std::uint64_t> probes_per_shard_;
};

}  // namespace p2panon::net
