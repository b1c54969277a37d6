// Pending-event set for the discrete-event simulator.
//
// A 4-ary min-heap keyed by (time, sequence number) orders execution: ties in
// time are broken by insertion order. seq is unique, so the order is total
// and the pop sequence cannot depend on the heap's shape — runs are
// reproducible whatever the heap arity or sift strategy. The heap holds only
// light 24-byte (time, seq, slot, gen) records and sifts with a hole (one
// move per level, no swaps); four children per node halve its depth against
// a binary heap.
//
// Event state lives in a generation-checked slot map stored as two parallel
// columns: a dense 8-byte SlotMeta {gen, next_free} (a slot is live exactly
// when next_free holds the kLive sentinel) and the EventCallback column. The
// stale-top check and cancel() read only the meta column, so they stay in
// cache even when tens of thousands of callbacks are pending. An EventId
// encodes (generation << 32 | slot), so cancel() is O(1): decode, compare
// generations, drop the callback. The heap entry of a cancelled event stays
// behind and is skipped when it surfaces at the top.
//
// Cancellation semantics (tested in tests/sim/test_event_queue.cpp):
//  - cancel() returns true exactly once, and only if the event had not yet
//    fired: the slot is freed and the callback destroyed immediately.
//  - cancel-after-fire returns false: pop() frees the slot before the caller
//    runs the callback, so from the callback's perspective the event no
//    longer exists.
//  - double-cancel returns false: the first cancel frees the slot.
//  - cancel-inside-own-callback returns false (the mid-pop() window): the
//    event is already spent once pop() has returned it, even though the
//    callback has not finished running.
//  - cancel-other-from-callback behaves normally: cancelling a different
//    pending event from inside a running callback returns true and the
//    victim never fires.
//  - stale ids never alias: a slot's generation is bumped on reuse (and
//    generation 0 is skipped on wrap), so an id from a fired or cancelled
//    event keeps returning false even after its slot is recycled — including
//    across clear().
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/event_callback.hpp"
#include "sim/types.hpp"

namespace p2panon::sim {

/// An event is an opaque callback executed at its scheduled time.
using EventFn = EventCallback;

class EventQueue {
 public:
  EventQueue() = default;

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Engine-health counters, monotone over the queue's lifetime (reset() by
  /// clear()). callback_heap_allocs counts scheduled callbacks whose capture
  /// outgrew EventCallback's inline buffer — zero in steady state.
  struct Stats {
    std::uint64_t scheduled = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t fired = 0;
    std::uint64_t callback_heap_allocs = 0;
  };

  /// Schedule `fn` at absolute time `at`. Returns a handle for cancel().
  EventId schedule(Time at, EventFn fn);

  /// Cancel a previously scheduled event in O(1). Returns false if the event
  /// has already fired, been cancelled, or never existed (see the semantics
  /// block above).
  bool cancel(EventId id);

  /// True when no live (non-cancelled) events remain.
  [[nodiscard]] bool empty() const noexcept { return live_count_ == 0; }

  /// Number of live events.
  [[nodiscard]] std::size_t size() const noexcept { return live_count_; }

  /// Time of the earliest live event; kTimeInfinity when empty.
  [[nodiscard]] Time next_time() const noexcept;

  /// Pop and return the earliest live event. Precondition: !empty().
  /// The event's slot is freed before this returns: cancel(id) for the popped
  /// id answers false from here on, and the id may be reused by a later
  /// schedule() (under a fresh generation).
  struct Popped {
    Time time;
    EventId id;
    EventFn fn;
  };
  Popped pop();

  /// Grow capacity (geometrically) so the next `n` schedule() calls do not
  /// reallocate. Changes no observable state.
  void reserve_more(std::size_t n);

  /// Drop everything and zero the stats. Outstanding ids stay dead: slot
  /// generations survive and are bumped on reuse as usual.
  void clear();

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  // One per slot, parallel to fns_. next_free is the free-list link while
  // the slot is free and kLive while it holds a pending event.
  struct SlotMeta {
    std::uint32_t gen = 0;  // bumped on allocation; 0 is never live
    std::uint32_t next_free = 0;
  };

  struct HeapEntry {
    Time time;
    std::uint64_t seq;  // tie-break: FIFO among equal times
    std::uint32_t slot;
    std::uint32_t gen;
  };

  // Heap order on (time, seq): a total order, since seq is unique.
  static bool earlier(const HeapEntry& a, const HeapEntry& b) noexcept {
    return a.time < b.time || (a.time == b.time && a.seq < b.seq);
  }

  static constexpr std::size_t kArity = 4;
  static constexpr std::uint32_t kNoFreeSlot = 0xFFFFFFFFu;  // free-list end
  static constexpr std::uint32_t kLive = 0xFFFFFFFEu;        // next_free of a live slot

  static EventId make_id(std::uint32_t slot, std::uint32_t gen) noexcept {
    return (static_cast<EventId>(gen) << 32) | slot;
  }

  [[nodiscard]] bool entry_live(const HeapEntry& e) const noexcept {
    const SlotMeta& m = meta_[e.slot];
    return m.next_free == kLive && m.gen == e.gen;
  }

  // Physically remove heap entries of cancelled events as they surface.
  // Logically const: the live set is unchanged (heap_ is mutable
  // bookkeeping, slots are not touched).
  void drop_stale_tops() const;

  // Hole-based 4-ary heap primitives. sift_up/sift_down place `e` starting
  // from the hole at index `hole`; pop_top removes heap_[0].
  void sift_up(std::size_t hole, HeapEntry e) noexcept;
  void sift_down(std::size_t hole, HeapEntry e) const noexcept;
  void pop_top() const noexcept;

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot) noexcept;

  mutable std::vector<HeapEntry> heap_;
  std::vector<SlotMeta> meta_;
  std::vector<EventCallback> fns_;
  std::uint32_t free_head_ = kNoFreeSlot;
  std::size_t live_count_ = 0;
  std::uint64_t next_seq_ = 0;
  Stats stats_;
};

}  // namespace p2panon::sim
