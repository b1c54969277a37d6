#include "fault/fault.hpp"

#include <cassert>

namespace p2panon::fault {

FaultInjector::FaultInjector(const FaultConfig& cfg, net::Overlay& overlay,
                             sim::rng::Stream stream)
    : cfg_(cfg),
      overlay_(overlay),
      loss_stream_(stream.child("loss")),
      jitter_stream_(stream.child("jitter")),
      probe_stream_(stream.child("probe")),
      last_crash_(overlay.size(), -1.0),
      last_recovery_(overlay.size(), -1.0) {
  assert(cfg.link_loss >= 0.0 && cfg.link_loss <= 1.0);
  assert(cfg.probe_false_negative >= 0.0 && cfg.probe_false_negative <= 1.0);
  assert(cfg.delay_jitter >= 0.0);
  assert(cfg.crash_rate_per_hour >= 0.0);
  crash_streams_.reserve(overlay.size());
  for (net::NodeId id = 0; id < overlay.size(); ++id) {
    crash_streams_.push_back(stream.child("crash", id));
  }
}

void FaultInjector::start() {
  if (cfg_.crash_rate_per_hour <= 0.0) return;
  for (net::NodeId id = 0; id < overlay_.size(); ++id) schedule_next_crash(id);
}

void FaultInjector::schedule_next_crash(net::NodeId id) {
  const double rate_per_sec = cfg_.crash_rate_per_hour / sim::hours(1.0);
  const sim::Time gap = crash_streams_[id].exponential(rate_per_sec);
  overlay_.simulator().schedule_in(gap, [this, id] { fire_crash(id); });
}

void FaultInjector::fire_crash(net::NodeId id) {
  // The hazard runs whether or not the node is currently up; a draw that
  // lands while the node is offline (or already crashed) is a miss. This
  // keeps each node's crash schedule a function of its own stream alone.
  if (overlay_.crash(id)) {
    ++crashes_;
    last_crash_[id] = overlay_.simulator().now();
    if (cfg_.crash_recovery_mean > 0.0) {
      const sim::Time down = crash_streams_[id].exponential(1.0 / cfg_.crash_recovery_mean);
      overlay_.simulator().schedule_in(down, [this, id] {
        last_recovery_[id] = overlay_.simulator().now();
        overlay_.recover(id);
      });
    }
  }
  schedule_next_crash(id);
}

bool FaultInjector::drop_message(net::NodeId /*from*/, net::NodeId /*to*/) {
  if (cfg_.link_loss > 0.0 && loss_stream_.bernoulli(cfg_.link_loss)) {
    ++drops_;
    return true;
  }
  return false;
}

sim::Time FaultInjector::extra_delay(net::NodeId from, net::NodeId to) {
  if (cfg_.delay_jitter <= 0.0) return 0.0;
  const sim::Time base = overlay_.links().transfer_time(from, to);
  return jitter_stream_.uniform(0.0, cfg_.delay_jitter * base);
}

bool FaultInjector::probe_observation(net::NodeId /*prober*/, net::NodeId target) {
  // A dead target never answers: false positives are physically
  // impossible, so only the true->false direction is degraded.
  if (!overlay_.is_online(target)) return false;
  if (cfg_.probe_false_negative > 0.0 &&
      probe_stream_.bernoulli(cfg_.probe_false_negative)) {
    ++probe_false_negatives_;
    return false;
  }
  return true;
}

}  // namespace p2panon::fault
