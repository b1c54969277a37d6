#include "net/sharded_probing.hpp"

#include <cassert>

namespace p2panon::net {

ShardedProbing::ShardedProbing(const NodeStateSoA& state, const ShardPartition& partition,
                               sim::Time period, sim::rng::Stream stream)
    : state_(state),
      partition_(partition),
      period_(period),
      stream_(stream),
      session_time_(state.size() * state.degree, kNeverObserved),
      avail_total_(state.size(), 0.0),
      probe_epoch_(state.size(), 0),
      probes_per_shard_(partition.shard_count(), 0) {
  assert(period_ > 0.0);
  assert(partition_.node_count() == state_.size());
}

void ShardedProbing::probe(NodeId s, std::span<const std::uint8_t> published_online) {
  const std::uint32_t home = partition_.shard_of(s);
  ++probes_per_shard_[home];
  ++probe_epoch_[s];  // session times are about to move

  const auto row = state_.neighbors_of(s);
  double* times = session_time_.data() + static_cast<std::size_t>(s) * state_.degree;
  double total = 0.0;
  for (std::size_t slot = 0; slot < row.size(); ++slot) {
    const NodeId u = row[slot];
    // Window contract: live liveness for a same-shard neighbour, the
    // last-barrier snapshot for a cross-shard one.
    const bool observed_alive = partition_.shard_of(u) == home
                                    ? state_.online[u] != 0
                                    : published_online[u] != 0;
    if (observed_alive) {
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

double ShardedProbing::availability(NodeId s, std::size_t slot) const {
  const double total = avail_total_[s];
  if (total <= 0.0) {
    // No observations yet: uniform prior over the neighbour set.
    return state_.degree > 0 ? 1.0 / static_cast<double>(state_.degree) : 0.0;
  }
  const double t = session_time_[static_cast<std::size_t>(s) * state_.degree + slot];
  return t < 0.0 ? 0.0 : t / total;
}

std::uint64_t ShardedProbing::probes_performed() const {
  std::uint64_t total = 0;
  for (const std::uint64_t n : probes_per_shard_) total += n;
  return total;
}

}  // namespace p2panon::net
