#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

using p2panon::sim::EventQueue;
using p2panon::sim::kTimeInfinity;

TEST(EventQueue, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.next_time(), kTimeInfinity);
}

TEST(EventQueue, PopInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(3.0, [&] { order.push_back(3); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5.0, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, MixedEqualAndDistinctTimes) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(2.0, [&] { order.push_back(20); });
  q.schedule(1.0, [&] { order.push_back(10); });
  q.schedule(2.0, [&] { order.push_back(21); });
  q.schedule(1.0, [&] { order.push_back(11); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{10, 11, 20, 21}));
}

TEST(EventQueue, NextTimeReflectsEarliestLive) {
  EventQueue q;
  auto id = q.schedule(1.0, [] {});
  q.schedule(2.0, [] {});
  EXPECT_DOUBLE_EQ(q.next_time(), 1.0);
  EXPECT_TRUE(q.cancel(id));
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
}

TEST(EventQueue, CancelRemovesEvent) {
  EventQueue q;
  bool fired = false;
  auto id = q.schedule(1.0, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, DoubleCancelReturnsFalse) {
  EventQueue q;
  auto id = q.schedule(1.0, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelAfterPopReturnsFalse) {
  EventQueue q;
  auto id = q.schedule(1.0, [] {});
  q.pop();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelUnknownIdReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(0));
  EXPECT_FALSE(q.cancel(12345));
}

TEST(EventQueue, CancelMiddleOfThree) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(1.0, [&] { order.push_back(1); });
  auto mid = q.schedule(2.0, [&] { order.push_back(2); });
  q.schedule(3.0, [&] { order.push_back(3); });
  EXPECT_TRUE(q.cancel(mid));
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  auto a = q.schedule(1.0, [] {});
  q.schedule(2.0, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.pop();
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, ClearDropsEverything) {
  EventQueue q;
  q.schedule(1.0, [] {});
  q.schedule(2.0, [] {});
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), kTimeInfinity);
}

TEST(EventQueue, PoppedCarriesTimeAndId) {
  EventQueue q;
  auto id = q.schedule(4.5, [] {});
  auto popped = q.pop();
  EXPECT_DOUBLE_EQ(popped.time, 4.5);
  EXPECT_EQ(popped.id, id);
  ASSERT_TRUE(popped.fn);
}

TEST(EventQueue, ManyEventsStressOrder) {
  EventQueue q;
  // Deterministic pseudo-random times; verify global ordering on pop.
  std::uint64_t state = 9;
  for (int i = 0; i < 2000; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const double t = static_cast<double>(state % 1000);
    q.schedule(t, [] {});
  }
  double last = -1.0;
  while (!q.empty()) {
    auto e = q.pop();
    EXPECT_GE(e.time, last);
    last = e.time;
  }
}

TEST(EventQueue, InterleavedCancelStress) {
  EventQueue q;
  std::vector<p2panon::sim::EventId> ids;
  int fired = 0;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(q.schedule(static_cast<double>(i % 10), [&] { ++fired; }));
  }
  // Cancel every third event.
  int cancelled = 0;
  for (std::size_t i = 0; i < ids.size(); i += 3) {
    if (q.cancel(ids[i])) ++cancelled;
  }
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired + cancelled, 100);
  EXPECT_EQ(cancelled, 34);
}

// --- The exact cancellation semantics documented in event_queue.hpp.

TEST(EventQueueCancelSemantics, CancelInsideOwnCallbackReturnsFalse) {
  // Once pop() has handed an event out, it is spent — even while its own
  // callback is still on the stack (the "mid-pop() window").
  EventQueue q;
  p2panon::sim::EventId self = p2panon::sim::kInvalidEventId;
  bool cancel_result = true;
  self = q.schedule(1.0, [&] { cancel_result = q.cancel(self); });
  q.pop().fn();
  EXPECT_FALSE(cancel_result);
}

TEST(EventQueueCancelSemantics, CancelOtherFromCallbackPreventsIt) {
  EventQueue q;
  bool victim_fired = false;
  bool cancel_result = false;
  const auto victim = q.schedule(2.0, [&] { victim_fired = true; });
  q.schedule(1.0, [&] { cancel_result = q.cancel(victim); });
  while (!q.empty()) q.pop().fn();
  EXPECT_TRUE(cancel_result);
  EXPECT_FALSE(victim_fired);
}

TEST(EventQueueCancelSemantics, ScheduleFromCallbackRuns) {
  EventQueue q;
  bool late_fired = false;
  q.schedule(1.0, [&] { q.schedule(2.0, [&] { late_fired = true; }); });
  while (!q.empty()) q.pop().fn();
  EXPECT_TRUE(late_fired);
}

TEST(EventQueueCancelSemantics, StaleIdAfterSlotReuseReturnsFalse) {
  // A fired event's slot may be recycled by a later schedule(); the old id
  // must keep answering false and must never cancel the new occupant.
  EventQueue q;
  const auto old_id = q.schedule(1.0, [] {});
  q.pop();
  bool fired = false;
  const auto new_id = q.schedule(2.0, [&] { fired = true; });
  EXPECT_NE(old_id, new_id);  // generation distinguishes the reuse
  EXPECT_FALSE(q.cancel(old_id));
  EXPECT_EQ(q.size(), 1u);
  q.pop().fn();
  EXPECT_TRUE(fired);
}

TEST(EventQueueCancelSemantics, PreClearIdsStayDeadAfterClear) {
  EventQueue q;
  const auto id = q.schedule(1.0, [] {});
  q.clear();
  EXPECT_FALSE(q.cancel(id));
  bool fired = false;
  q.schedule(1.0, [&] { fired = true; });
  EXPECT_FALSE(q.cancel(id));  // still the pre-clear generation
  q.pop().fn();
  EXPECT_TRUE(fired);
}

TEST(EventQueueCancelSemantics, CancelledSlotReusedKeepsOrdering) {
  // Reusing a cancelled event's slot must not disturb (time, seq) order.
  EventQueue q;
  std::vector<int> order;
  q.schedule(1.0, [&] { order.push_back(1); });
  const auto dead = q.schedule(1.0, [&] { order.push_back(-1); });
  q.schedule(1.0, [&] { order.push_back(2); });
  EXPECT_TRUE(q.cancel(dead));
  q.schedule(1.0, [&] { order.push_back(3); });  // likely reuses dead's slot
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// --- FIFO lanes: a second kind of source, the same (time, seq) order.

TEST(EventQueueLanes, TiesAcrossLanesAndHeapPopInScheduleOrder) {
  EventQueue q;
  const auto a = q.add_lane();
  const auto b = q.add_lane();
  std::vector<int> order;
  q.schedule(a, 1.0, [&] { order.push_back(0); });
  q.schedule(2.0, [&] { order.push_back(3); });
  q.schedule(b, 1.0, [&] { order.push_back(1); });
  q.schedule(1.0, [&] { order.push_back(2); });
  q.schedule(a, 2.0, [&] { order.push_back(4); });
  q.schedule(b, 2.0, [&] { order.push_back(5); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(q.stats().fired_from_lanes, 4u);
}

TEST(EventQueueLanes, ScheduleThatBreaksTheLaneOrderGoesToTheHeap) {
  EventQueue q;
  const auto lane = q.add_lane();
  std::vector<int> order;
  q.schedule(lane, 5.0, [&] { order.push_back(5); });
  EXPECT_EQ(q.lane_back(lane), 5.0);
  q.schedule(lane, 3.0, [&] { order.push_back(3); });  // earlier: heap
  q.schedule(lane, 5.0, [&] { order.push_back(6); });  // equal time, later seq: lane
  EXPECT_EQ(q.lane_back(lane), 5.0);
  EXPECT_DOUBLE_EQ(q.next_time(), 3.0);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{3, 5, 6}));
  EXPECT_EQ(q.stats().fired, 3u);
  EXPECT_EQ(q.stats().fired_from_lanes, 2u);
}

TEST(EventQueueLanes, CancelledLaneFrontIsSkipped) {
  EventQueue q;
  const auto lane = q.add_lane();
  bool first_fired = false;
  bool second_fired = false;
  const auto first = q.schedule(lane, 1.0, [&] { first_fired = true; });
  q.schedule(lane, 2.0, [&] { second_fired = true; });
  EXPECT_TRUE(q.cancel(first));
  EXPECT_FALSE(q.cancel(first));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
  q.pop().fn();
  EXPECT_FALSE(first_fired);
  EXPECT_TRUE(second_fired);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueLanes, CancelInsideOwnLaneCallbackReturnsFalse) {
  EventQueue q;
  const auto lane = q.add_lane();
  p2panon::sim::EventId self = p2panon::sim::kInvalidEventId;
  bool cancel_result = true;
  self = q.schedule(lane, 1.0, [&] { cancel_result = q.cancel(self); });
  q.pop().fn();
  EXPECT_FALSE(cancel_result);
}

TEST(EventQueueLanes, ClearEmptiesLanesAndKeepsThemOpen) {
  EventQueue q;
  const auto lane = q.add_lane();
  const auto stale = q.schedule(lane, 9.0, [] {});
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), kTimeInfinity);
  EXPECT_EQ(q.lane_back(lane), -kTimeInfinity);
  bool fired = false;
  q.schedule(lane, 1.0, [&] { fired = true; });  // earlier than before clear(): still the lane
  EXPECT_FALSE(q.cancel(stale));
  q.pop().fn();
  EXPECT_TRUE(fired);
  EXPECT_EQ(q.stats().fired_from_lanes, 1u);
}

TEST(EventQueueLanes, LaneKeepsOrderAcrossRingGrowthAndWrap) {
  // Pop some, push more, so the ring wraps before it grows.
  EventQueue q;
  const auto lane = q.add_lane();
  std::vector<int> order;
  int next = 0;
  int expected = 0;
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 7; ++i, ++next) {
      q.schedule(lane, static_cast<double>(next), [&order, next] { order.push_back(next); });
    }
    for (int i = 0; i < 5; ++i) q.pop().fn();
  }
  while (!q.empty()) q.pop().fn();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(next));
  for (const int v : order) EXPECT_EQ(v, expected++);
}

TEST(EventQueueStats, CountsScheduledCancelledFired) {
  EventQueue q;
  const auto a = q.schedule(1.0, [] {});
  q.schedule(2.0, [] {});
  q.schedule(3.0, [] {});
  EXPECT_TRUE(q.cancel(a));
  EXPECT_FALSE(q.cancel(a));  // failed cancels are not counted
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(q.stats().scheduled, 3u);
  EXPECT_EQ(q.stats().cancelled, 1u);
  EXPECT_EQ(q.stats().fired, 2u);
  EXPECT_EQ(q.stats().callback_heap_allocs, 0u);
}

TEST(EventQueueStats, OversizedCaptureCountsAsHeapFallback) {
  EventQueue q;
  struct Big {
    char bytes[p2panon::sim::EventCallback::kInlineSize + 1] = {};
  } big;
  q.schedule(1.0, [big] { (void)big; });
  EXPECT_EQ(q.stats().callback_heap_allocs, 1u);
  q.pop().fn();
}

TEST(EventQueueStress, MillionEventScheduleCancelPop) {
  // ~1M events through interleaved schedule/cancel/pop with a pending set in
  // the thousands — the cancel-heavy fault-mode shape. With the old
  // O(pending) cancel this test is quadratic; with the slot map it is
  // effectively instant, so a ctest timeout doubles as a complexity guard.
  EventQueue q;
  constexpr int kEvents = 1'000'000;
  std::uint64_t rng = 42;
  auto next = [&rng] {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return rng >> 33;
  };
  std::vector<p2panon::sim::EventId> pending_ids;
  pending_ids.reserve(4096);
  double now = 0.0;
  std::uint64_t fired = 0;
  std::uint64_t cancelled = 0;
  int scheduled = 0;
  while (scheduled < kEvents || !q.empty()) {
    const std::uint64_t r = next();
    const auto op = static_cast<int>(r % 4);
    if (op == 1 && !pending_ids.empty()) {
      // Cancel a pseudo-random previously issued id (may already be spent).
      if (q.cancel(pending_ids[r % pending_ids.size()])) ++cancelled;
    } else if (op >= 2 && scheduled < kEvents) {
      const double at = now + 1.0 + static_cast<double>(r % 1000);
      pending_ids.push_back(q.schedule(at, [&fired] { ++fired; }));
      ++scheduled;
    } else if (!q.empty()) {
      auto ev = q.pop();
      EXPECT_GE(ev.time, now);
      now = ev.time;
      ev.fn();
    }
    if (pending_ids.size() >= 4096) pending_ids.clear();
  }
  EXPECT_EQ(fired + cancelled, static_cast<std::uint64_t>(kEvents));
  EXPECT_EQ(q.stats().scheduled, static_cast<std::uint64_t>(kEvents));
  EXPECT_EQ(q.stats().fired, fired);
  EXPECT_EQ(q.stats().cancelled, cancelled);
  EXPECT_EQ(q.stats().callback_heap_allocs, 0u);
  EXPECT_GT(cancelled, static_cast<std::uint64_t>(kEvents) / 20);
}

namespace {

/// Drives an EventQueue and an ordered std::map model of its pending set in
/// lock step. The model is the specification: pop order is (time, schedule
/// order), nothing else — whether an entry sits in the heap or in a lane.
class ModelCheckedQueue {
 public:
  using Key = std::pair<double, std::uint64_t>;  // (time, schedule order)

  // Lane l serves the fixed delay (l + 1) * kLaneDelay, on the same
  // quarter-second grid as draw_time(), so lane and heap entries tie often.
  static constexpr int kLanes = 3;
  static constexpr double kLaneDelay = 8.0;

  ModelCheckedQueue() {
    for (auto& lane : lanes_) lane = q_.add_lane();
  }

  std::uint64_t draw() {
    rng_ = rng_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return rng_ >> 33;
  }

  // Coarse quarter-second grid: equal-time ties are the common case.
  double draw_time() { return now_ + 0.25 * static_cast<double>(draw() % 256); }

  void schedule(double at) {
    const std::uint64_t order = next_order_++;
    record(at, order, q_.schedule(at, [this, order] { on_fire(order); }));
  }

  void schedule_lane(int lane, double at) {
    const std::uint64_t order = next_order_++;
    record(at, order, q_.schedule(lanes_[lane], at, [this, order] { on_fire(order); }));
  }

  // The engine's mix: the heap at a drawn time, a lane at its fixed delay,
  // and now and then a lane at a drawn time no later than that, which the
  // queue must send to the heap whenever it would break the lane's order.
  void schedule_any() {
    const std::uint64_t r = draw() % 8;
    const int lane = static_cast<int>(draw() % kLanes);
    const double delay = kLaneDelay * (lane + 1);
    if (r < 4) {
      schedule(draw_time());
    } else if (r < 7) {
      schedule_lane(lane, now_ + delay);
    } else {
      const auto quarters = static_cast<std::uint64_t>(4.0 * delay) + 1;
      schedule_lane(lane, now_ + 0.25 * static_cast<double>(draw() % quarters));
    }
  }

  void cancel_some() {
    if (recent_ids_.empty()) return;
    const auto id = recent_ids_[draw() % recent_ids_.size()];
    const auto it = key_of_.find(id);
    const bool expected = it != key_of_.end();
    if (expected) {
      model_.erase(it->second);
      key_of_.erase(it);
    }
    ASSERT_EQ(q_.cancel(id), expected);
  }

  void pop_one() {
    ASSERT_FALSE(model_.empty());
    const auto head = model_.begin();
    const Key key = head->first;
    const auto id = head->second;
    model_.erase(head);
    key_of_.erase(id);
    auto ev = q_.pop();
    ASSERT_EQ(ev.time, key.first);
    ASSERT_EQ(ev.id, id);
    now_ = ev.time;
    firing_ = id;
    ev.fn();
    ASSERT_EQ(fired_order_, key.second);  // the callback column matches the entry
    ASSERT_FALSE(self_cancelled_);        // a popped event is spent, even mid-callback
  }

  // Drop everything in both; the ids handed out so far stay cancel targets
  // and must all answer false from here on.
  void clear() {
    q_.clear();
    model_.clear();
    key_of_.clear();
  }

  void check_head() const {
    ASSERT_EQ(q_.size(), model_.size());
    ASSERT_EQ(q_.next_time(),
              model_.empty() ? p2panon::sim::kTimeInfinity : model_.begin()->first.first);
  }

  [[nodiscard]] std::size_t pending() const { return model_.size(); }
  [[nodiscard]] const EventQueue& queue() const { return q_; }

 private:
  void record(double at, std::uint64_t order, p2panon::sim::EventId id) {
    model_.emplace(Key{at, order}, id);
    key_of_.emplace(id, Key{at, order});
    // Remember recent ids, live or spent, as cancel targets.
    if (recent_ids_.size() < 4096) {
      recent_ids_.push_back(id);
    } else {
      recent_ids_[draw() % recent_ids_.size()] = id;
    }
  }

  void on_fire(std::uint64_t order) {
    fired_order_ = order;
    // One in four callbacks schedules a follow-up (heap or lane, sometimes
    // at `now` itself); one in six tries to cancel its own event.
    const std::uint64_t r = draw();
    if (r % 4 == 0) {
      if (r % 8 == 0) {
        schedule(now_);
      } else {
        schedule_any();
      }
    }
    self_cancelled_ = r % 6 == 0 && q_.cancel(firing_);
  }

  EventQueue q_;
  EventQueue::LaneId lanes_[kLanes] = {};
  std::map<Key, p2panon::sim::EventId> model_;
  std::unordered_map<p2panon::sim::EventId, Key> key_of_;
  std::vector<p2panon::sim::EventId> recent_ids_;
  std::uint64_t rng_ = 20240917;
  std::uint64_t next_order_ = 0;
  std::uint64_t fired_order_ = ~std::uint64_t{0};
  p2panon::sim::EventId firing_ = p2panon::sim::kInvalidEventId;
  bool self_cancelled_ = false;
  double now_ = 0.0;
};

}  // namespace

TEST(EventQueueStress, MatchesOrderedReferenceExactly) {
  // ~2e5 seeded schedule/cancel/pop operations against an ordered model with
  // ~4e4 events pending, so the heap is many levels deep and the lanes long:
  // every popped (time, id), every fired callback and every next_time() must
  // match exactly — not merely come out in non-decreasing time. Schedules mix
  // the heap and three fixed-delay lanes (with ties across them and lane
  // schedules that must fall back to the heap); halfway through, clear()
  // drops everything and the queue is refilled.
  constexpr std::size_t kTarget = 40'000;
  constexpr int kOps = 200'000;
  ModelCheckedQueue d;
  while (d.pending() < kTarget) d.schedule_any();
  for (int i = 0; i < kOps; ++i) {
    if (i == kOps / 2) {
      d.clear();
      d.check_head();
      while (d.pending() < kTarget) d.schedule_any();
    }
    const std::uint64_t r = d.draw() % 8;
    if (r < 3 || d.pending() == 0) {
      d.schedule_any();
    } else if (r < 5) {
      d.cancel_some();
    } else {
      d.pop_one();
    }
    d.check_head();
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(d.pending(), 10'000u);
  while (d.pending() > 0) {
    d.pop_one();
    d.check_head();
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_TRUE(d.queue().empty());
  const EventQueue::Stats& stats = d.queue().stats();  // since the clear()
  EXPECT_EQ(stats.scheduled, stats.fired + stats.cancelled);
  // Both kinds of source served a real share of the pops.
  EXPECT_GT(stats.fired_from_lanes, stats.fired / 5);
  EXPECT_LT(stats.fired_from_lanes, stats.fired - stats.fired / 5);
}
