// Active-probing availability estimation (paper §2.3) on the serial engine.
//
// ProbingEstimator drives the one §2.3 estimator, ShardedProbing (see
// net/sharded_probing.hpp), as a single shard over the overlay's node
// state: overlay churn starts and suspends each node's probe loop, every
// probe reads ground truth (or an installed fault oracle), and a neighbour
// replacement restarts its slot. Queries are by neighbour id rather than
// slot.
#pragma once

#include <cstdint>
#include <functional>

#include "net/overlay.hpp"
#include "net/sharded_probing.hpp"
#include "net/soa.hpp"
#include "sim/rng.hpp"
#include "sim/types.hpp"

namespace p2panon::net {

struct ProbingConfig {
  sim::Time period = sim::minutes(5.0);  ///< T
};

class ProbingEstimator {
 public:
  /// What a probe by `prober` observes about `target`. Installed by the
  /// fault layer to degrade ground truth (probe false negatives);
  /// when absent, probes see the simulator's omniscient liveness, which is
  /// the fault-free baseline behaviour, bit for bit.
  using ProbeOracle = std::function<bool(NodeId prober, NodeId target)>;

  /// Registers churn/neighbour observers on the overlay and schedules the
  /// per-node probe loops. Construct before Overlay::start().
  ProbingEstimator(Overlay& overlay, const ProbingConfig& cfg, sim::rng::Stream stream);

  ProbingEstimator(const ProbingEstimator&) = delete;
  ProbingEstimator& operator=(const ProbingEstimator&) = delete;

  /// alpha_s(u): s's availability estimate for neighbour u, in [0, 1].
  /// Falls back to uniform 1/|D(s)| before any session time accumulates;
  /// 0 for a non-neighbour after that. O(d): a scan of D(s) for u, the
  /// denominator is cached.
  [[nodiscard]] double availability(NodeId s, NodeId u) const {
    return estimator_.availability_of(s, u);
  }

  /// Monotonically increasing per-node estimate epoch: bumped whenever
  /// anything alpha_s(.) depends on changes (a probe of s updating session
  /// times, or a neighbour replacement in D(s)). Equal epochs guarantee
  /// identical availability answers for s.
  [[nodiscard]] std::uint64_t epoch(NodeId s) const { return estimator_.epoch(s); }

  /// Raw observed session time t_s(u) in seconds (0 for a non-neighbour).
  [[nodiscard]] sim::Time observed_session_time(NodeId s, NodeId u) const {
    return estimator_.observed_session_time(s, estimator_.slot_of(s, u));
  }

  [[nodiscard]] std::uint64_t probes_performed() const noexcept {
    return estimator_.probes_performed();
  }
  [[nodiscard]] const ProbingConfig& config() const noexcept { return cfg_; }
  /// The estimator this driver feeds, addressed by neighbour slot.
  [[nodiscard]] const ShardedProbing& estimator() const noexcept { return estimator_; }

  /// Route probe outcomes through `oracle` instead of ground truth.
  /// Install before any probing period elapses (estimates made under the
  /// old oracle are not revised).
  void set_probe_oracle(ProbeOracle oracle) { oracle_ = std::move(oracle); }

 private:
  void schedule_tick(NodeId s);

  Overlay& overlay_;
  ProbingConfig cfg_;
  ShardPartition partition_;  ///< one shard: every neighbour is read live
  ShardedProbing estimator_;
  ProbeOracle oracle_;  ///< empty = ground truth (fault-free baseline)
  sim::Simulator::LaneId tick_lane_;  ///< ticks repeat at one fixed period T
};

}  // namespace p2panon::net
