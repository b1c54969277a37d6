// Availability estimation over SoA node state (paper §2.3, after Bustamante &
// Qiao), for any number of engine shards K >= 1.
//
// There is no centralised availability service: each peer s estimates the
// availability of its neighbours from its own probes. At the start of every
// probing period of length T, s checks the liveness of each u in D(s):
//   * if u is alive, its observed session time grows: t_s(u) += T;
//   * if u is a *new* neighbour first seen alive this period, its session
//     time is initialised to rand(0, T) (uniform), since it may have come
//     online anywhere within the period.
// The availability estimate is the normalised observed session time
//   alpha_s(u) = t_s(u) / sum_{v in D(s)} t_s(v),
// so a neighbour with a longer observed session time has higher availability.
//
// This is the one implementation of that estimator. The serial engine drives
// it as the K = 1 case through ProbingEstimator (net/probing.hpp); the
// sharded runners drive it directly.
//
//   * Session times live in one flat array aligned with the overlay's CSR
//     neighbour table (slot (s, j) of the probing state is slot (s, j) of
//     D(s)) — a probe sweep is a contiguous streaming walk, no hashing.
//   * All mutable state for node s is written only by s's owning shard, so
//     concurrent windows need no synchronisation.
//   * Liveness comes from the caller (probe_with). probe() applies the
//     window contract: a same-shard neighbour is read live, a cross-shard
//     neighbour through the liveness snapshot published at the last window
//     barrier. At K = 1 every neighbour is same-shard and reads are fully
//     live — the serial-oracle identity the equivalence tests pin.
//   * The per-node probe loop (wake/tick) is kept here too: one loop per
//     node, started on a join while idle, suspended by the first tick that
//     finds the node offline.
//
// Epoch contract: probe_epoch_[s] is bumped by every mutation that any
// alpha_s(.) depends on — a probe sweep of s, or a neighbour slot of s
// restarted by forget(). Equal epochs guarantee bit-identical availability
// answers for s.
#pragma once

#include <algorithm>
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

  /// Take `live`'s session times, denominators and epochs (same node state):
  /// every answer equals `live`'s as of this call. A copy that never probes
  /// is a frozen snapshot for readers that must not see in-window probes.
  void copy_estimates(const ShardedProbing& live);

  /// One probing period for node s: walk D(s) once, accumulate session time
  /// for neighbours observed alive, refresh the cached denominator. Must be
  /// called on s's owning shard. `published_online` is the last-barrier
  /// liveness snapshot (size N) consulted for cross-shard neighbours.
  void probe(NodeId s, std::span<const std::uint8_t> published_online);

  /// probe() with liveness taken from `observed_alive(u)`, called once per
  /// neighbour u in slot order.
  template <class ObservedAlive>
  void probe_with(NodeId s, ObservedAlive&& observed_alive);

  /// Neighbour slot j of s now holds a node s has never observed: restart
  /// its session time and renormalise alpha_s(.).
  void forget(NodeId s, std::size_t slot);

  /// A join of s: true when s had no probe loop running, in which case the
  /// caller schedules the first tick one period out.
  [[nodiscard]] bool wake(NodeId s);

  /// One tick of s's probe loop: probes and returns true while s is online
  /// (the caller schedules the next tick); suspends the loop and returns
  /// false when s is offline.
  [[nodiscard]] bool tick(NodeId s, std::span<const std::uint8_t> published_online);
  template <class ObservedAlive>
  [[nodiscard]] bool tick_with(NodeId s, ObservedAlive&& observed_alive);

  /// alpha_s(u) addressed by neighbour slot j in D(s). Uniform 1/d prior
  /// before any observation; 0 for a never-observed neighbour once any
  /// other accumulated, and for slot == d (not a neighbour).
  [[nodiscard]] double availability(NodeId s, std::size_t slot) const;

  /// Slot of u in D(s), or d when u is not a neighbour (rows hold no
  /// duplicates). O(d).
  [[nodiscard]] std::size_t slot_of(NodeId s, NodeId u) const {
    const auto row = state_.neighbors_of(s);
    return static_cast<std::size_t>(std::find(row.begin(), row.end(), u) - row.begin());
  }
  /// alpha_s(u) addressed by neighbour id.
  [[nodiscard]] double availability_of(NodeId s, NodeId u) const {
    return availability(s, slot_of(s, u));
  }

  [[nodiscard]] std::uint64_t epoch(NodeId s) const { return probe_epoch_[s]; }
  /// t_s(u) in seconds by slot; 0 before the first sighting and for
  /// slot == d.
  [[nodiscard]] sim::Time observed_session_time(NodeId s, std::size_t slot) const {
    if (slot >= state_.degree) return 0.0;
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
  /// 1 while s has a probe loop scheduled. Bytes, not vector<bool>: shards
  /// write their own nodes' flags concurrently.
  std::vector<std::uint8_t> loop_active_;
};

template <class ObservedAlive>
void ShardedProbing::probe_with(NodeId s, ObservedAlive&& observed_alive) {
  ++probes_per_shard_[partition_.shard_of(s)];
  ++probe_epoch_[s];  // session times are about to move

  const auto row = state_.neighbors_of(s);
  double* times = session_time_.data() + static_cast<std::size_t>(s) * state_.degree;
  // One walk both updates session times and refreshes the cached
  // denominator: each slot's own update lands before it is added.
  double total = 0.0;
  for (std::size_t slot = 0; slot < row.size(); ++slot) {
    const NodeId u = row[slot];
    if (observed_alive(u)) {
      if (times[slot] >= 0.0) {
        times[slot] += period_;
      } else {
        // New neighbour first observed alive: t_s(u) = rand(0, T). Child
        // derivation is const on stream_, so concurrent shards can draw.
        auto init_stream =
            stream_.child("init", (static_cast<std::uint64_t>(s) << 32) | u);
        times[slot] = init_stream.uniform(0.0, period_);
      }
    }
    if (times[slot] >= 0.0) total += times[slot];
  }
  avail_total_[s] = total;
}

template <class ObservedAlive>
bool ShardedProbing::tick_with(NodeId s, ObservedAlive&& observed_alive) {
  if (state_.online[s] == 0) {
    loop_active_[s] = 0;  // suspend; restarts on the next join
    return false;
  }
  probe_with(s, observed_alive);
  return true;
}

}  // namespace p2panon::net
