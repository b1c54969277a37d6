// Pending-event set for the discrete-event simulator.
//
// Execution order is (time, sequence number): ties in time are broken by
// insertion order. seq is unique, so the order is total and the pop sequence
// cannot depend on where an entry is stored — runs are reproducible whatever
// the heap arity, sift strategy or lane assignment. Pending entries are light
// 24-byte (time, seq, slot, gen) records held in one of two kinds of source:
//  - a 4-ary min-heap that sifts with a hole (one move per level, no swaps);
//    four children per node halve its depth against a binary heap;
//  - FIFO lanes: rings that only ever grow in (time, seq) order. A timer
//    with one fixed delay T scheduled at now + T into its own lane arrives
//    in order by construction (now never falls, seq always rises), so it
//    costs an append and a pop_front instead of two sifts. An entry that
//    would break its lane's order goes to the heap instead.
// pop() and next_time() take the earliest front among the heap top and the
// lane fronts. Each source is sorted by (time, seq), so the earliest front is
// the earliest entry overall: the pop order is exactly the one a single heap
// would give. After each pop the callback and meta slots of the next earliest
// entry are prefetched, so the next pop does not wait on a cache miss.
//
// Event state lives in a generation-checked slot map stored as two parallel
// columns: a dense 8-byte SlotMeta {gen, next_free} (a slot is live exactly
// when next_free holds the kLive sentinel) and the EventCallback column. The
// stale-top check and cancel() read only the meta column, so they stay in
// cache even when tens of thousands of callbacks are pending. An EventId
// encodes (generation << 32 | slot), so cancel() is O(1): decode, compare
// generations, drop the callback. The heap or lane entry of a cancelled event
// stays behind and is skipped when it surfaces at the front of its source.
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
  /// Names a FIFO lane of one queue (see add_lane()).
  using LaneId = std::uint32_t;

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
    std::uint64_t fired_from_lanes = 0;  ///< pops served by a lane, not the heap
  };

  /// Schedule `fn` at absolute time `at`. Returns a handle for cancel().
  EventId schedule(Time at, EventFn fn);

  /// Open a FIFO lane. Lanes live as long as the queue (clear() empties them
  /// but keeps them open); ids count up from 0 in opening order.
  LaneId add_lane();

  /// Schedule `fn` at `at` through `lane`: appended to the lane when it
  /// keeps the lane in (time, seq) order (at is not before the lane's last
  /// entry), otherwise pushed on the heap. Either way the event fires in the
  /// same place of the (time, seq) order, and cancel() treats it the same.
  EventId schedule(LaneId lane, Time at, EventFn fn);

  /// Time of the last entry in `lane` (live or cancelled); -infinity when
  /// the lane is empty. An append at or after it stays in the lane.
  [[nodiscard]] Time lane_back(LaneId lane) const noexcept;

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

  /// Grow capacity (geometrically) so the next `n` schedule() calls, each
  /// into the heap or `lane`, do not reallocate. Changes no observable
  /// state. Other lanes are left alone: reserving every lane for a burst
  /// that goes to one of them would only inflate memory.
  void reserve_more(std::size_t n, LaneId lane);

  /// Drop everything and zero the stats. Lanes stay open, empty. Outstanding
  /// ids stay dead: slot generations survive and are bumped on reuse as
  /// usual.
  void clear();

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  // One per slot, parallel to fns_. next_free is the free-list link while
  // the slot is free and kLive while it holds a pending event.
  struct SlotMeta {
    std::uint32_t gen = 0;  // bumped on allocation; 0 is never live
    std::uint32_t next_free = 0;
  };

  // A pending event's place in the order, in the heap or in a lane.
  struct Entry {
    Time time;
    std::uint64_t seq;  // tie-break: FIFO among equal times
    std::uint32_t slot;
    std::uint32_t gen;
  };

  // (time, seq): a total order, since seq is unique.
  static bool earlier(const Entry& a, const Entry& b) noexcept {
    return a.time < b.time || (a.time == b.time && a.seq < b.seq);
  }

  // A FIFO lane: a ring whose capacity (ring.size()) is 0 or a power of two.
  // Entries run in (time, seq) order from head.
  struct Lane {
    std::vector<Entry> ring;
    std::size_t head = 0;
    std::size_t count = 0;

    [[nodiscard]] const Entry& front() const noexcept { return ring[head]; }
    [[nodiscard]] const Entry& back() const noexcept {
      return ring[(head + count - 1) & (ring.size() - 1)];
    }
    void push_back(const Entry& e);
    void pop_front() noexcept {
      head = (head + 1) & (ring.size() - 1);
      --count;
    }
    // Capacity for at least n entries, keeping their order.
    void reserve(std::size_t n);
  };

  static constexpr std::size_t kArity = 4;
  static constexpr std::uint32_t kNoFreeSlot = 0xFFFFFFFFu;  // free-list end
  static constexpr std::uint32_t kLive = 0xFFFFFFFEu;        // next_free of a live slot
  // Sources of pending entries: a lane index, or one of these.
  static constexpr std::uint32_t kNoSource = 0xFFFFFFFFu;  // nothing pending
  static constexpr std::uint32_t kHeapSource = 0xFFFFFFFEu;

  static EventId make_id(std::uint32_t slot, std::uint32_t gen) noexcept {
    return (static_cast<EventId>(gen) << 32) | slot;
  }

  [[nodiscard]] bool entry_live(const Entry& e) const noexcept {
    const SlotMeta& m = meta_[e.slot];
    return m.next_free == kLive && m.gen == e.gen;
  }

  [[nodiscard]] const Entry& front_of(std::uint32_t source) const noexcept {
    return source == kHeapSource ? heap_.front() : lanes_[source].front();
  }
  // The source whose front entry comes first, live or not; kNoSource when
  // every source is empty.
  [[nodiscard]] std::uint32_t earliest_front() const noexcept;
  // The source whose front is the earliest live entry. Drops the entries of
  // cancelled events that surface on the way. Logically const: the live set
  // is unchanged (heap_ and lanes_ are mutable bookkeeping, slots are not
  // touched).
  std::uint32_t earliest_live() const;
  void drop_front(std::uint32_t source) const noexcept;

  // Hole-based 4-ary heap primitives. sift_up/sift_down place `e` starting
  // from the hole at index `hole`; pop_top removes heap_[0].
  void sift_up(std::size_t hole, Entry e) noexcept;
  void sift_down(std::size_t hole, Entry e) const noexcept;
  void pop_top() const noexcept;

  // Claims a slot for `fn` and counts it; returns its (slot, gen) entry.
  Entry admit(Time at, EventFn fn);
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot) noexcept;

  mutable std::vector<Entry> heap_;
  mutable std::vector<Lane> lanes_;
  std::vector<SlotMeta> meta_;
  std::vector<EventCallback> fns_;
  std::uint32_t free_head_ = kNoFreeSlot;
  std::size_t live_count_ = 0;
  std::uint64_t next_seq_ = 0;
  Stats stats_;
};

}  // namespace p2panon::sim
