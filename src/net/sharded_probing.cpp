#include "net/sharded_probing.hpp"

#include <cassert>

namespace p2panon::net {

namespace {

/// The window contract for a probe by s: live liveness for a same-shard
/// neighbour, the last-barrier snapshot for a cross-shard one.
auto window_liveness(const NodeStateSoA& state, const ShardPartition& partition, NodeId s,
                     std::span<const std::uint8_t> published_online) {
  return [&state, &partition, home = partition.shard_of(s), published_online](NodeId u) {
    return partition.shard_of(u) == home ? state.online[u] != 0 : published_online[u] != 0;
  };
}

}  // namespace

ShardedProbing::ShardedProbing(const NodeStateSoA& state, const ShardPartition& partition,
                               sim::Time period, sim::rng::Stream stream)
    : state_(state),
      partition_(partition),
      period_(period),
      stream_(stream),
      session_time_(state.size() * state.degree, kNeverObserved),
      avail_total_(state.size(), 0.0),
      probe_epoch_(state.size(), 0),
      probes_per_shard_(partition.shard_count(), 0),
      loop_active_(state.size(), 0) {
  assert(period_ > 0.0);
  assert(partition_.node_count() == state_.size());
}

void ShardedProbing::copy_estimates(const ShardedProbing& live) {
  assert(&live.state_ == &state_);
  session_time_ = live.session_time_;
  avail_total_ = live.avail_total_;
  probe_epoch_ = live.probe_epoch_;
}

void ShardedProbing::probe(NodeId s, std::span<const std::uint8_t> published_online) {
  probe_with(s, window_liveness(state_, partition_, s, published_online));
}

void ShardedProbing::forget(NodeId s, std::size_t slot) {
  double* times = session_time_.data() + static_cast<std::size_t>(s) * state_.degree;
  times[slot] = kNeverObserved;
  // D(s) changed, so every alpha_s(.) may have: re-sum in slot order.
  double total = 0.0;
  for (std::size_t j = 0; j < state_.degree; ++j) {
    if (times[j] >= 0.0) total += times[j];
  }
  avail_total_[s] = total;
  ++probe_epoch_[s];
}

bool ShardedProbing::wake(NodeId s) {
  if (loop_active_[s] != 0) return false;
  loop_active_[s] = 1;
  return true;
}

bool ShardedProbing::tick(NodeId s, std::span<const std::uint8_t> published_online) {
  return tick_with(s, window_liveness(state_, partition_, s, published_online));
}

double ShardedProbing::availability(NodeId s, std::size_t slot) const {
  const double total = avail_total_[s];
  if (total <= 0.0) {
    // No observations yet: uniform prior over the neighbour set.
    return state_.degree > 0 ? 1.0 / static_cast<double>(state_.degree) : 0.0;
  }
  if (slot >= state_.degree) return 0.0;
  const double t = session_time_[static_cast<std::size_t>(s) * state_.degree + slot];
  return t < 0.0 ? 0.0 : t / total;
}

std::uint64_t ShardedProbing::probes_performed() const {
  std::uint64_t total = 0;
  for (const std::uint64_t n : probes_per_shard_) total += n;
  return total;
}

}  // namespace p2panon::net
