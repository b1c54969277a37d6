// Discrete-event simulation engine.
//
// Single-threaded per instance (parallelism happens across replicate
// instances, see src/parallel). The engine owns the clock and the pending
// event set; model code schedules callbacks and reads now().
#pragma once

#include <cstdint>

#include "sim/event_queue.hpp"
#include "sim/types.hpp"

namespace p2panon::sim {

class Simulator {
 public:
  Simulator() = default;

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time.
  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Number of events executed so far.
  [[nodiscard]] std::uint64_t events_executed() const noexcept { return executed_; }

  /// Engine counters (events scheduled/cancelled/fired, callback heap
  /// fallbacks) since construction or the last reset().
  [[nodiscard]] const EventQueue::Stats& queue_stats() const noexcept {
    return queue_.stats();
  }

  /// Schedule `fn` to run `delay` seconds from now (delay >= 0).
  EventId schedule_in(Time delay, EventFn fn);

  /// Schedule `fn` at absolute time `at` (at >= now()).
  EventId schedule_at(Time at, EventFn fn);

  using LaneId = EventQueue::LaneId;

  /// Open a FIFO lane in the pending-event set (see EventQueue). Give each
  /// kind of timer with one fixed delay its own lane: its events then arrive
  /// in order and skip the heap.
  LaneId add_lane() { return queue_.add_lane(); }

  /// Schedule `fn` `delay` seconds from now through `lane`. The lane must
  /// serve one fixed delay: now() never falls, so its appends are then
  /// monotone and none falls back to the heap (asserted).
  EventId schedule_in(LaneId lane, Time delay, EventFn fn);

  /// Schedule `fn` at absolute time `at` (>= now()) through `lane`; an
  /// entry that would break the lane's order goes to the heap instead.
  EventId schedule_at(LaneId lane, Time at, EventFn fn);

  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Run until the event set drains or the clock would pass `until`.
  /// Events at exactly `until` are executed. Returns the final clock value
  /// (== until if the horizon was hit with events still pending).
  Time run_until(Time until);

  /// Time of the earliest pending event; kTimeInfinity when idle. The sharded
  /// engine uses this to fast-forward over empty windows.
  [[nodiscard]] Time next_event_time() const noexcept { return queue_.next_time(); }

  /// Run until the event set drains completely.
  Time run_to_completion();

  /// Execute at most one event. Returns false when nothing is pending.
  bool step();

  [[nodiscard]] bool idle() const noexcept { return queue_.empty(); }
  [[nodiscard]] std::size_t pending_events() const noexcept { return queue_.size(); }

  /// Make room for `n` more events, each scheduled on the heap or `lane`,
  /// without reallocating.
  void reserve_events(std::size_t n, LaneId lane) { queue_.reserve_more(n, lane); }

  /// Reset clock and drop all pending events.
  void reset();

 private:
  EventQueue queue_;
  Time now_ = 0.0;
  std::uint64_t executed_ = 0;
};

}  // namespace p2panon::sim
