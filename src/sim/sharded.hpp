// Sharded discrete-event engine: K independent per-shard Simulators advanced
// in lock-step time windows, with cross-shard effects exchanged only at
// window boundaries (conservative parallel discrete-event simulation).
//
// Model contract
// --------------
//   - Every model entity (node, contract leg, probe loop) is owned by exactly
//     one shard. Events touching only that shard's state are scheduled
//     directly on its Simulator (`shard(s).schedule_*` or `post` with
//     src == dst).
//   - An effect on *another* shard must go through `post(src, dst, at, fn)`.
//     The callback is buffered in the (src, dst) outbox and delivered at
//     the first window boundary >= the send window, at time
//     max(at, boundary). Shards therefore never observe mid-window state of
//     their peers, which is what makes the windowed run race-free without
//     any locking in model code.
//   - Cross-shard *reads* must use state published at the previous barrier
//     (see barrier hooks below), never live peer state.
//
// Determinism contract
// --------------------
//   - K = 1: `post` with src == dst == 0 degenerates to a plain local
//     schedule_at and run_until is a chunked drive of the single Simulator —
//     bitwise identical to running the serial engine directly (chunking
//     run_until never reorders events).
//   - K > 1: for a fixed {seed, K, window} the result is bitwise identical
//     across thread-pool sizes, including the serial pool == nullptr path.
//     Within a window shards share no mutable state. At the barrier, after
//     the hooks, each destination shard's mail is drained by its own task
//     in (source shard ascending, append order) — a deterministic merge per
//     destination. A drain touches only its destination's queue and the
//     (src, dst) boxes addressed to it, so the K drains run in parallel and
//     every shard queue still hands out the same sequence numbers.
//
// The thread pool is borrowed twice per barrier-synchronised window (window
// tasks, then drain tasks; submit + wait_idle each). Do not run a windowed
// ShardedSimulator from *inside* a task on the same pool: wait_idle waits for
// all queued tasks and would deadlock.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/types.hpp"

namespace p2panon::parallel {
class ThreadPool;
}

namespace p2panon::sim {

class ShardedSimulator {
 public:
  using ShardId = std::uint32_t;

  /// Counters over the sharded run (in addition to the per-shard
  /// EventQueue::Stats reachable through shard(s).queue_stats()).
  struct Stats {
    std::uint64_t cross_shard_messages = 0;  ///< mailbox deliveries (src != dst)
    std::uint64_t window_barriers = 0;       ///< barrier synchronisations executed
  };

  /// A hook run serially at every window barrier (after all shards reached
  /// the boundary, before the mailboxes are drained). Used to publish
  /// cross-shard snapshots and to drain model-level batch queues (claims,
  /// settlement).
  using BarrierHook = std::function<void(Time boundary)>;

  /// `shard_count` >= 1. `window` > 0 is the synchronisation quantum; the
  /// window grid is anchored at t = 0. `pool` may be nullptr, in which case
  /// shards run serially in shard order (still window-synchronised, same
  /// results by the determinism contract).
  ShardedSimulator(ShardId shard_count, Time window, parallel::ThreadPool* pool);
  ~ShardedSimulator();

  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  [[nodiscard]] ShardId shard_count() const noexcept {
    return static_cast<ShardId>(shards_.size());
  }
  [[nodiscard]] Time window() const noexcept { return window_; }

  /// The per-shard serial engine. Model code owned by shard `s` schedules
  /// local events here and reads shard-local time via shard(s).now().
  [[nodiscard]] Simulator& shard(ShardId s) noexcept { return *shards_[s]; }
  [[nodiscard]] const Simulator& shard(ShardId s) const noexcept { return *shards_[s]; }

  /// Schedule `fn` to run on shard `dst` at absolute time `at`, from code
  /// currently executing on shard `src`. Local posts (src == dst) bypass the
  /// mailbox entirely. Cross-shard posts are buffered in the (src, dst)
  /// outbox — safe to call concurrently from distinct shards — and delivered
  /// at the next window barrier at time max(at, boundary).
  void post(ShardId src, ShardId dst, Time at, EventFn fn);

  /// Open a FIFO lane on every shard (see Simulator::add_lane). The one id
  /// returned names it on each shard.
  Simulator::LaneId add_lane();

  /// Register a barrier hook (see BarrierHook). Hooks run serially in
  /// registration order; they must not schedule cross-shard work directly
  /// (use post from a shard, or schedule locally on any shard — the shard
  /// clocks all equal the boundary while hooks run).
  void add_barrier_hook(BarrierHook hook) { hooks_.push_back(std::move(hook)); }

  /// Advance all shards to `until`, window by window. Events at exactly
  /// `until` are executed; every shard's clock ends at max(now, until).
  /// Returns the final clock value (like Simulator::run_until): a horizon
  /// already in the past moves no clock and returns the current time.
  Time run_until(Time until);

  /// Earliest pending event over all shards; kTimeInfinity when fully idle.
  [[nodiscard]] Time next_event_time() const noexcept;

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// Sum of shard(s).queue_stats() over all shards.
  [[nodiscard]] EventQueue::Stats aggregate_queue_stats() const noexcept;

 private:
  struct Outgoing {
    Time at;
    EventFn fn;
  };

  // Run task(s) for every shard s: on the pool when there is one and K > 1,
  // in shard order otherwise. Returns when every task has finished.
  template <typename Task>
  void for_each_shard(const Task& task);
  void flush_mailboxes(Time boundary);
  void drain_into(ShardId dst, Time boundary);

  std::vector<std::unique_ptr<Simulator>> shards_;
  // outbox_[src][dst]: within a window each shard appends only to its own
  // row, so cross-shard sends need no synchronisation; at the barrier each
  // destination drains only its own column.
  std::vector<std::vector<std::vector<Outgoing>>> outbox_;
  std::vector<BarrierHook> hooks_;
  Simulator::LaneId mail_lane_ = 0;  // mailbox deliveries clamped to a boundary
  Time window_;
  parallel::ThreadPool* pool_;
  Stats stats_;
};

}  // namespace p2panon::sim
