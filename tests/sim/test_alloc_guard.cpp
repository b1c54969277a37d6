// Allocation guard for the event engine: once the queue's backing storage
// has reached steady-state capacity, schedule/cancel/pop must not touch the
// heap at all — EventCallback keeps captures inline and the slot map recycles
// its records. The guard replaces the global allocation functions with
// counting wrappers (binary-wide, but only the bracketed window is counted)
// and asserts the count stays zero through a model-shaped workload.
#include "sim/event_queue.hpp"
#include "sim/sharded.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void note_allocation() {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
}

void* checked_malloc(std::size_t n) {
  note_allocation();
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* checked_aligned(std::size_t n, std::size_t align) {
  note_allocation();
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align, n == 0 ? 1 : n) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return checked_malloc(n); }
void* operator new[](std::size_t n) { return checked_malloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return checked_aligned(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return checked_aligned(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace {

using p2panon::sim::EventQueue;

// A capture the size of the model layers' largest scheduled lambda (leg
// delivery: this + shared_ptr + ids), comfortably inside the inline budget.
struct ModelCapture {
  void* self = nullptr;
  void* control_a = nullptr;
  void* control_b = nullptr;
  std::uint64_t tid = 0;
  std::uint32_t attempt = 0;
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  std::uint32_t kind = 0;
};
static_assert(sizeof(ModelCapture) <= p2panon::sim::EventCallback::kInlineSize);

TEST(EventQueueAllocGuard, SteadyStateSchedulesWithoutAllocating) {
  EventQueue q;
  const EventQueue::LaneId tick_lane = q.add_lane();
  const EventQueue::LaneId timer_lane = q.add_lane();
  ModelCapture capture;
  constexpr int kPending = 2048;
  std::uint64_t fired = 0;

  // The fault-mode steady state — schedule a timer, cancel the previous one,
  // pop due events — with fixed-delay ticks and timers on two lanes beside
  // the heap. Deterministic, so two runs trace identical storage-growth
  // profiles: the physical heap and ring lengths (live + not-yet-surfaced
  // stale entries) and slot count peak at the same values each time.
  const auto run_workload = [&q, &capture, &fired, tick_lane, timer_lane] {
    double now = 0.0;
    p2panon::sim::EventId last = p2panon::sim::kInvalidEventId;
    for (int round = 0; round < 50'000; ++round) {
      const auto callback = [capture, &fired] {
        ++fired;
        (void)capture;
      };
      const int kind = round % 3;
      const auto id = kind == 0   ? q.schedule(now + 5.0 + (round % 97), callback)
                      : kind == 1 ? q.schedule(tick_lane, now + 30.0, callback)
                                  : q.schedule(timer_lane, now + 90.0, callback);
      if (round % 2 == 1) q.cancel(last);
      last = id;
      if (q.size() >= kPending / 2) {
        auto ev = q.pop();
        now = ev.time;
        ev.fn();
      }
    }
    while (!q.empty()) {
      auto ev = q.pop();
      now = ev.time;
      ev.fn();
    }
  };

  // Warm-up pass: grows the heap vector and the slot map to the exact peak
  // the counted pass will need. Capacity is retained across clear-less reuse.
  run_workload();

  // Counted pass: same workload, zero allocations allowed. No gtest
  // assertions inside the window (they allocate).
  g_allocations.store(0);
  g_counting.store(true);
  run_workload();
  g_counting.store(false);

  EXPECT_EQ(g_allocations.load(), 0u)
      << "steady-state schedule/cancel/pop performed heap allocations";
  EXPECT_EQ(q.stats().callback_heap_allocs, 0u);
  EXPECT_GT(q.stats().fired_from_lanes, 0u);
  EXPECT_GT(fired, 0u);
}

// The same guarantee for the windowed sharded drive: after warm-up, per-shard
// queues, outboxes, and mailbox flushes all run on retained capacity — zero
// heap traffic per shard per window. Serial shard loop (pool == nullptr):
// ThreadPool::submit wraps tasks in std::function and is the one documented
// O(K)-per-window allocation site, so it is exactly what this guard excludes.
TEST(ShardedAllocGuard, SteadyStateWindowedRunDoesNotAllocate) {
  constexpr std::uint32_t kShards = 4;
  p2panon::sim::ShardedSimulator engine(kShards, 10.0, nullptr);

  // One hopping chain per shard. Each tick arms a long timer and cancels it
  // shortly after (the cancel-heavy shape), then hands the chain to the next
  // shard through the mailbox — constant event population, constant
  // cross-shard rate, so warm-up reaches every steady-state capacity peak.
  struct Ticker {
    p2panon::sim::ShardedSimulator* engine;
    std::uint64_t fired = 0;
    void tick(std::uint32_t shard) {
      ++fired;
      const double now = engine->shard(shard).now();
      const auto doomed = engine->shard(shard).schedule_at(now + 50.0, [] {});
      engine->shard(shard).schedule_at(now + 1.0, [this, shard, doomed] {
        engine->shard(shard).cancel(doomed);
      });
      const std::uint32_t peer = (shard + 1) % kShards;
      engine->post(shard, peer, now + 1.0, [this, peer] { tick(peer); });
    }
  } ticker{&engine};
  for (std::uint32_t s = 0; s < kShards; ++s) {
    engine.post(s, s, static_cast<double>(s) * 0.25, [&ticker, s] { ticker.tick(s); });
  }

  // Warm-up: grows every queue, slot map, and outbox to its periodic peak.
  engine.run_until(200.0);
  ASSERT_GT(ticker.fired, 0u);
  const std::uint64_t warm_fired = ticker.fired;

  // Counted pass: same periodic regime, zero allocations allowed. No gtest
  // assertions inside the window (they allocate).
  g_allocations.store(0);
  g_counting.store(true);
  engine.run_until(400.0);
  g_counting.store(false);

  EXPECT_EQ(g_allocations.load(), 0u)
      << "steady-state sharded windowed run performed heap allocations";
  EXPECT_GT(ticker.fired, warm_fired);
  EXPECT_GT(engine.stats().cross_shard_messages, 0u);
  EXPECT_EQ(engine.aggregate_queue_stats().callback_heap_allocs, 0u);
}

}  // namespace
