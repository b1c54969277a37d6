#include "sim/sharded.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "parallel/thread_pool.hpp"

namespace p2panon::sim {

ShardedSimulator::ShardedSimulator(ShardId shard_count, Time window,
                                   parallel::ThreadPool* pool)
    : window_(window), pool_(pool) {
  assert(shard_count >= 1 && "need at least one shard");
  assert(window > 0.0 && "window must be positive");
  shards_.reserve(shard_count);
  outbox_.resize(shard_count);
  for (ShardId s = 0; s < shard_count; ++s) {
    shards_.push_back(std::make_unique<Simulator>());
    outbox_[s].resize(shard_count);
  }
  mail_lane_ = add_lane();
}

ShardedSimulator::~ShardedSimulator() = default;

void ShardedSimulator::post(ShardId src, ShardId dst, Time at, EventFn fn) {
  assert(src < shards_.size() && dst < shards_.size());
  if (src == dst) {
    // Local effect: plain schedule on the owning shard. This branch is what
    // makes K = 1 degenerate to the serial engine bitwise.
    shards_[src]->schedule_at(at, std::move(fn));
    return;
  }
  outbox_[src][dst].push_back(Outgoing{at, std::move(fn)});
}

Simulator::LaneId ShardedSimulator::add_lane() {
  const Simulator::LaneId lane = shards_[0]->add_lane();
  for (ShardId s = 1; s < shard_count(); ++s) {
    [[maybe_unused]] const Simulator::LaneId same = shards_[s]->add_lane();
    assert(same == lane && "shards must open their lanes in the same order");
  }
  return lane;
}

Time ShardedSimulator::next_event_time() const noexcept {
  Time next = kTimeInfinity;
  for (const auto& shard : shards_) {
    next = std::min(next, shard->next_event_time());
  }
  return next;
}

EventQueue::Stats ShardedSimulator::aggregate_queue_stats() const noexcept {
  EventQueue::Stats total;
  for (const auto& shard : shards_) {
    const auto& s = shard->queue_stats();
    total.scheduled += s.scheduled;
    total.cancelled += s.cancelled;
    total.fired += s.fired;
    total.callback_heap_allocs += s.callback_heap_allocs;
    total.fired_from_lanes += s.fired_from_lanes;
  }
  return total;
}

template <typename Task>
void ShardedSimulator::for_each_shard(const Task& task) {
  if (pool_ != nullptr && shards_.size() > 1) {
    for (ShardId s = 0; s < shard_count(); ++s) {
      pool_->submit([&task, s] { task(s); });
    }
    pool_->wait_idle();
  } else {
    for (ShardId s = 0; s < shard_count(); ++s) task(s);
  }
}

void ShardedSimulator::drain_into(ShardId dst, Time boundary) {
  // Deterministic merge for one destination: source shards in ascending
  // order, each outbox in append order. Delivery time is clamped up to the
  // boundary so no shard ever receives an event in its past. The clamped
  // deliveries all fire at the boundary, in this merge order, so they ride
  // the mail lane; the few sent for later go to the heap.
  Simulator& to = *shards_[dst];
  for (auto& row : outbox_) {
    auto& box = row[dst];
    for (auto& msg : box) {
      if (msg.at <= boundary) {
        to.schedule_at(mail_lane_, boundary, std::move(msg.fn));
      } else {
        to.schedule_at(msg.at, std::move(msg.fn));
      }
    }
    box.clear();  // keeps capacity — steady state appends do not allocate
  }
}

void ShardedSimulator::flush_mailboxes(Time boundary) {
  // Count the mail and grow every destination queue here, on the calling
  // thread, so the drains never reallocate (keeps queue memory out of the
  // pool threads' malloc arenas).
  std::uint64_t mail = 0;
  for (ShardId dst = 0; dst < shard_count(); ++dst) {
    std::size_t incoming = 0;
    for (const auto& row : outbox_) incoming += row[dst].size();
    shards_[dst]->reserve_events(incoming, mail_lane_);
    mail += incoming;
  }
  if (mail == 0) return;
  stats_.cross_shard_messages += mail;
  // Each drain writes only its destination's queue and clears only the boxes
  // addressed to it, so the drains share no mutable state.
  for_each_shard([this, boundary](ShardId dst) { drain_into(dst, boundary); });
}

Time ShardedSimulator::run_until(Time until) {
  // Posts made outside a window (harness setup) are delivered now, at the
  // current barrier, before any window runs.
  Time now = shards_[0]->now();
  flush_mailboxes(now);

  for (;;) {
    const Time next = next_event_time();
    if (next > until) break;
    // Fast-forward across empty windows: jump straight to the window that
    // contains the earliest pending event instead of barriering through
    // quiet ones. floor() keeps the grid anchored at t = 0 so {seed, K,
    // window} fully determines every boundary.
    const Time window_start = std::max(now, std::floor(next / window_) * window_);
    const Time window_end = std::min(until, window_start + window_);
    for_each_shard([this, window_end](ShardId s) { shards_[s]->run_until(window_end); });
    stats_.window_barriers += 1;
    for (const auto& hook : hooks_) hook(window_end);
    flush_mailboxes(window_end);
    now = window_end;
  }

  // Advance idle clocks to the horizon (mirrors Simulator::run_until). A
  // horizon in the past moves no clock.
  for (const auto& shard : shards_) {
    now = shard->run_until(until);
  }
  return now;
}

}  // namespace p2panon::sim
