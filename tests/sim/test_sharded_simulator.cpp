// ShardedSimulator engine-level contracts (see src/sim/sharded.hpp):
// K = 1 degenerates to the plain serial Simulator event for event; cross-
// shard posts arrive only at window boundaries at max(at, boundary); empty
// windows are fast-forwarded; and for a fixed {K, window} the execution is
// identical across thread-pool sizes including the pool == nullptr path.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"

using namespace p2panon;
using namespace p2panon::sim;

namespace {

struct Fired {
  int tag;
  Time at;
  bool operator==(const Fired&) const = default;
};

/// A small but adversarial single-shard workload: same-time ties, an event
/// scheduling more events, and a cancelled timer. `sched` abstracts over the
/// plain Simulator and shard 0 of a ShardedSimulator.
template <typename Schedule, typename Cancel>
void seed_workload(std::vector<Fired>& log, Schedule sched, Cancel cancel) {
  sched(5.0, [&log] { log.push_back({1, 5.0}); });
  sched(5.0, [&log] { log.push_back({2, 5.0}); });  // same-time tie
  sched(12.5, [&log, sched] {
    log.push_back({3, 12.5});
    sched(12.5, [&log] { log.push_back({4, 12.5}); });  // zero-delay follow-up
    sched(40.0, [&log] { log.push_back({5, 40.0}); });
  });
  const EventId doomed = sched(33.0, [&log] { log.push_back({-1, 33.0}); });
  sched(20.0, [&log, cancel, doomed] {
    log.push_back({6, 20.0});
    cancel(doomed);
  });
}

}  // namespace

TEST(ShardedSimulator, SingleShardMatchesPlainSimulatorEventForEvent) {
  std::vector<Fired> plain_log;
  Simulator plain;
  seed_workload(
      plain_log, [&plain](Time at, auto fn) { return plain.schedule_at(at, std::move(fn)); },
      [&plain](EventId id) { plain.cancel(id); });
  plain.run_until(100.0);

  // A window much smaller than the event spacing forces many chunked
  // run_until calls — the chunking must not reorder or drop anything.
  std::vector<Fired> sharded_log;
  ShardedSimulator sharded(1, 3.0, nullptr);
  seed_workload(
      sharded_log,
      [&sharded](Time at, auto fn) { return sharded.shard(0).schedule_at(at, std::move(fn)); },
      [&sharded](EventId id) { sharded.shard(0).cancel(id); });
  sharded.run_until(100.0);

  EXPECT_EQ(plain_log, sharded_log);
  EXPECT_EQ(plain.now(), sharded.shard(0).now());
  EXPECT_EQ(sharded.stats().cross_shard_messages, 0u);
  // Engine counters match too: chunked driving fires the same events.
  EXPECT_EQ(plain.queue_stats().fired, sharded.aggregate_queue_stats().fired);
  EXPECT_EQ(plain.queue_stats().cancelled,
            sharded.aggregate_queue_stats().cancelled);
}

TEST(ShardedSimulator, CrossShardPostDeliversAtWindowBoundary) {
  ShardedSimulator engine(2, 10.0, nullptr);
  std::vector<Time> deliveries;

  engine.shard(0).schedule_at(1.0, [&engine, &deliveries] {
    // Send time inside the current window: arrives exactly at the boundary,
    // never mid-window (the receiver must not see mid-window effects).
    engine.post(0, 1, 3.0, [&engine, &deliveries] { deliveries.push_back(engine.shard(1).now()); });
    // Target time beyond the boundary: arrives at its own time.
    engine.post(0, 1, 17.0, [&engine, &deliveries] { deliveries.push_back(engine.shard(1).now()); });
  });
  engine.run_until(30.0);

  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0], 10.0);  // max(3, boundary 10)
  EXPECT_EQ(deliveries[1], 17.0);  // max(17, boundary 10)
  EXPECT_EQ(engine.stats().cross_shard_messages, 2u);
}

TEST(ShardedSimulator, LocalPostBypassesMailbox) {
  ShardedSimulator engine(2, 10.0, nullptr);
  std::vector<Time> deliveries;
  engine.shard(0).schedule_at(1.0, [&engine, &deliveries] {
    engine.post(0, 0, 3.0, [&engine, &deliveries] { deliveries.push_back(engine.shard(0).now()); });
  });
  engine.run_until(30.0);

  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0], 3.0);  // mid-window: local posts are plain schedules
  EXPECT_EQ(engine.stats().cross_shard_messages, 0u);
}

TEST(ShardedSimulator, PostBeforeRunIsDeliveredAtItsTime) {
  // Seeding posts issued before the first run_until (no window is active yet)
  // are flushed up-front, so they land at their requested time.
  ShardedSimulator engine(4, 10.0, nullptr);
  std::vector<std::pair<std::uint32_t, Time>> deliveries;
  for (std::uint32_t dst = 0; dst < 4; ++dst) {
    engine.post(0, dst, 2.5 + dst, [&engine, &deliveries, dst] {
      deliveries.emplace_back(dst, engine.shard(dst).now());
    });
  }
  engine.run_until(30.0);

  ASSERT_EQ(deliveries.size(), 4u);
  for (std::uint32_t dst = 0; dst < 4; ++dst) {
    EXPECT_EQ(deliveries[dst].first, dst);
    EXPECT_EQ(deliveries[dst].second, 2.5 + dst);
  }
}

TEST(ShardedSimulator, FastForwardsEmptyWindowsAndCountsBarriers) {
  ShardedSimulator engine(2, 10.0, nullptr);
  std::vector<Time> barrier_times;
  engine.add_barrier_hook([&barrier_times](Time boundary) { barrier_times.push_back(boundary); });

  bool fired = false;
  engine.shard(1).schedule_at(95.0, [&fired] { fired = true; });
  engine.run_until(200.0);

  EXPECT_TRUE(fired);
  // One window covers [90, 100): the 9 empty windows before it and the 10
  // after are skipped, not barriered through.
  EXPECT_EQ(engine.stats().window_barriers, 1u);
  ASSERT_EQ(barrier_times.size(), 1u);
  EXPECT_EQ(barrier_times[0], 100.0);
  EXPECT_EQ(engine.shard(0).now(), 200.0);
  EXPECT_EQ(engine.shard(1).now(), 200.0);
}

TEST(ShardedSimulator, CrossShardChainCountsEveryHandOff) {
  // Ping-pong between two shards: each delivery re-posts to the peer until
  // the horizon. Every hand-off crosses the mailbox exactly once.
  ShardedSimulator engine(2, 10.0, nullptr);
  std::uint64_t hops = 0;
  // EventCallback's inline buffer is small, so recurse through a function
  // pointer-style self-reference held outside the callback.
  struct Pinger {
    ShardedSimulator* engine;
    std::uint64_t* hops;
    void bounce(std::uint32_t me) {
      ++*hops;
      const std::uint32_t peer = 1 - me;
      if (engine->shard(me).now() < 95.0) {
        engine->post(me, peer, engine->shard(me).now(),
                     [this, peer] { bounce(peer); });
      }
    }
  } pinger{&engine, &hops};
  engine.post(0, 1, 0.0, [&pinger] { pinger.bounce(1); });
  engine.run_until(100.0);

  // Seed delivery at t=0... then one delivery per boundary 10..100.
  EXPECT_GT(hops, 5u);
  EXPECT_EQ(engine.stats().cross_shard_messages, hops);
}

TEST(ShardedSimulator, DeterministicAcrossPoolSizes) {
  // Fixed {K, window}: per-shard execution logs must be identical whether
  // windows run serially (pool == nullptr) or on pools of any size. Each
  // shard logs only into its own vector, so parallel windows stay race-free.
  constexpr std::uint32_t kShards = 4;
  const auto run_logs = [](parallel::ThreadPool* pool) {
    ShardedSimulator engine(kShards, 5.0, pool);
    auto logs = std::vector<std::vector<Fired>>(kShards);
    struct Fanout {
      ShardedSimulator* engine;
      std::vector<std::vector<Fired>>* logs;
      void tick(std::uint32_t shard, int depth) {
        (*logs)[shard].push_back({depth, engine->shard(shard).now()});
        if (depth >= 6) return;
        const Time now = engine->shard(shard).now();
        // One local follow-up and one cross-shard hand-off per tick.
        engine->shard(shard).schedule_at(now + 1.25, [this, shard, depth] {
          (*logs)[shard].push_back({100 + depth, engine->shard(shard).now()});
        });
        const std::uint32_t peer = (shard + 1 + static_cast<std::uint32_t>(depth)) % kShards;
        engine->post(shard, peer, now + 2.0, [this, peer, depth] { tick(peer, depth + 1); });
      }
    } fanout{&engine, &logs};
    for (std::uint32_t s = 0; s < kShards; ++s) {
      engine.post(s, s, 0.5 + s, [&fanout, s] { fanout.tick(s, 0); });
    }
    engine.run_until(400.0);
    return std::make_pair(std::move(logs), engine.stats().cross_shard_messages);
  };

  const auto [serial_logs, serial_msgs] = run_logs(nullptr);
  EXPECT_GT(serial_msgs, 0u);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE("pool size " + std::to_string(threads));
    parallel::ThreadPool pool(threads);
    const auto [logs, msgs] = run_logs(&pool);
    EXPECT_EQ(logs, serial_logs);
    EXPECT_EQ(msgs, serial_msgs);
  }
}

TEST(ShardedSimulator, MailboxMergeIsSourceAscendingFifoPerDestination) {
  // Pins the barrier merge order: every destination receives its mail in
  // (source shard ascending, append order), after the events it already had
  // pending at the same time, whatever the pool size. Shards 3, 1 and 2 send
  // inside the first window in that wall-clock order; a barrier hook posts
  // one more message from shard 0 after the window has run.
  constexpr std::uint32_t kShards = 4;
  constexpr Time kAt = 4.0;  // inside window [0, 10): clamped to boundary 10
  const auto run_logs = [](parallel::ThreadPool* pool) {
    ShardedSimulator engine(kShards, 10.0, pool);
    auto logs = std::vector<std::vector<Fired>>(kShards);
    const auto deliver = [&engine, &logs](std::uint32_t src, std::uint32_t dst, int tag) {
      engine.post(src, dst, kAt, [&engine, &logs, dst, tag] {
        logs[dst].push_back({tag, engine.shard(dst).now()});
      });
    };
    // Already pending on the destinations at the boundary time itself.
    engine.shard(0).schedule_at(10.0, [&engine, &logs] {
      logs[0].push_back({900, engine.shard(0).now()});
    });
    engine.shard(2).schedule_at(10.0, [&engine, &logs] {
      logs[2].push_back({902, engine.shard(2).now()});
    });
    for (const std::uint32_t src : {3u, 1u, 2u}) {
      engine.shard(src).schedule_at(1.0 + (3 - src), [&deliver, src] {
        const int base = 100 * static_cast<int>(src);
        deliver(src, 0, base + 1);
        deliver(src, 0, base + 2);
        deliver(src, 2, base + 3);  // src 2 -> 2 is local: fires at kAt
      });
    }
    bool hook_posted = false;
    engine.add_barrier_hook([&deliver, &hook_posted](Time) {
      if (hook_posted) return;
      hook_posted = true;
      deliver(0, 2, 1);
    });
    engine.run_until(30.0);
    return std::make_pair(std::move(logs), engine.stats().cross_shard_messages);
  };

  const std::vector<std::vector<Fired>> expected = {
      {{900, 10.0}, {101, 10.0}, {102, 10.0}, {201, 10.0}, {202, 10.0}, {301, 10.0}, {302, 10.0}},
      {},
      {{203, kAt}, {902, 10.0}, {1, 10.0}, {103, 10.0}, {303, 10.0}},
      {},
  };
  const auto [serial_logs, serial_msgs] = run_logs(nullptr);
  EXPECT_EQ(serial_logs, expected);
  EXPECT_EQ(serial_msgs, 9u);  // 6 to shard 0, 2 to shard 2, 1 from the hook
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE("pool size " + std::to_string(threads));
    parallel::ThreadPool pool(threads);
    const auto [logs, msgs] = run_logs(&pool);
    EXPECT_EQ(logs, expected);
    EXPECT_EQ(msgs, serial_msgs);
  }
}

TEST(ShardedSimulator, RunUntilInThePastReturnsTheClock) {
  // Like Simulator::run_until, the return value is the clock actually
  // reached: a horizon behind the current time moves no shard clock back.
  ShardedSimulator engine(2, 10.0, nullptr);
  EXPECT_EQ(engine.run_until(50.0), 50.0);
  EXPECT_EQ(engine.run_until(20.0), 50.0);
  EXPECT_EQ(engine.shard(0).now(), 50.0);
  EXPECT_EQ(engine.shard(1).now(), 50.0);
}
