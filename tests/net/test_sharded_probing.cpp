#include "net/sharded_probing.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <vector>

#include "net/soa.hpp"
#include "sim/rng.hpp"

using namespace p2panon::net;
namespace sim = p2panon::sim;

namespace {

constexpr sim::Time kPeriod = 300.0;

// N = 6 at K = 2: shard 0 owns {0, 1, 2}, shard 1 owns {3, 4, 5}. Node 0's
// row D(0) = [1, 4, 2] mixes same-shard (slots 0 and 2) and cross-shard
// (slot 1) neighbours.
struct Fixture {
  NodeStateSoA state;
  ShardPartition partition{6, 2};
  std::vector<std::uint8_t> published = std::vector<std::uint8_t>(6, 0);

  Fixture() {
    state.resize(6, 3);
    for (NodeId id = 0; id < 6; ++id) {
      auto row = state.neighbors_of(id);
      for (std::size_t j = 0; j < 3; ++j) row[j] = static_cast<NodeId>((id + 1 + j) % 6);
    }
    const NodeId row0[] = {1, 4, 2};
    std::copy(std::begin(row0), std::end(row0), state.neighbors_of(0).begin());
  }
};

}  // namespace

TEST(ShardedProbing, CrossShardNeighbourReadsPublishedSameShardReadsLive) {
  Fixture f;
  ShardedProbing probing(f.state, f.partition, kPeriod, sim::rng::Stream(1));
  ASSERT_EQ(f.partition.shard_of(0), f.partition.shard_of(1));
  ASSERT_NE(f.partition.shard_of(0), f.partition.shard_of(4));

  // Live says 4 is up, the snapshot says down: the cross-shard slot must
  // follow the snapshot. Same-shard 1 is live up, same-shard 2 live down
  // although the snapshot says up.
  f.state.online[1] = 1;
  f.state.online[4] = 1;
  f.published[2] = 1;
  probing.probe(0, f.published);
  EXPECT_GT(probing.observed_session_time(0, 0), 0.0);
  EXPECT_EQ(probing.observed_session_time(0, 1), 0.0);
  EXPECT_EQ(probing.observed_session_time(0, 2), 0.0);
  EXPECT_EQ(probing.availability(0, 1), 0.0);

  // Flip both sources for 4: now only the snapshot says up.
  f.state.online[4] = 0;
  f.published[4] = 1;
  const double t1 = probing.observed_session_time(0, 0);
  probing.probe(0, f.published);
  EXPECT_DOUBLE_EQ(probing.observed_session_time(0, 0), t1 + kPeriod);
  EXPECT_GT(probing.observed_session_time(0, 1), 0.0);
  EXPECT_LT(probing.observed_session_time(0, 1), kPeriod);
  EXPECT_EQ(probing.observed_session_time(0, 2), 0.0);
  EXPECT_EQ(probing.probes_performed(), 2u);
  EXPECT_EQ(probing.epoch(0), 2u);
}

TEST(ShardedProbing, OneProbeLoopPerNode) {
  Fixture f;
  ShardedProbing probing(f.state, f.partition, kPeriod, sim::rng::Stream(2));
  f.state.online[0] = 1;
  EXPECT_TRUE(probing.wake(0));
  EXPECT_FALSE(probing.wake(0)) << "a rejoin while the loop runs must not start a second";
  EXPECT_TRUE(probing.tick(0, f.published));
  EXPECT_EQ(probing.probes_performed(), 1u);
  EXPECT_FALSE(probing.wake(0));

  // Offline: the tick suspends the loop without probing.
  f.state.online[0] = 0;
  EXPECT_FALSE(probing.tick(0, f.published));
  EXPECT_EQ(probing.probes_performed(), 1u);
  EXPECT_EQ(probing.epoch(0), 1u);
  EXPECT_TRUE(probing.wake(0)) << "a suspended loop restarts on the next join";

  // Loops are per node.
  EXPECT_TRUE(probing.wake(3));
  EXPECT_FALSE(probing.wake(3));
}

TEST(ShardedProbing, ForgetRestartsTheSlotAndRenormalises) {
  Fixture f;
  ShardedProbing probing(f.state, f.partition, kPeriod, sim::rng::Stream(3));
  f.state.online[1] = 1;
  f.state.online[2] = 1;
  probing.probe(0, f.published);
  probing.probe(0, f.published);
  ASSERT_GT(probing.observed_session_time(0, 0), kPeriod);
  ASSERT_GT(probing.observed_session_time(0, 2), kPeriod);
  const std::uint64_t epoch = probing.epoch(0);

  probing.forget(0, 2);
  EXPECT_EQ(probing.epoch(0), epoch + 1);
  EXPECT_EQ(probing.observed_session_time(0, 2), 0.0);
  EXPECT_EQ(probing.availability(0, 2), 0.0);
  EXPECT_DOUBLE_EQ(probing.availability(0, 0), 1.0);
  EXPECT_EQ(probing.availability(0, 1) + probing.availability(0, 2), 0.0);

  // The restarted slot is initialised on its next sighting, in [0, T).
  probing.probe(0, f.published);
  EXPECT_GT(probing.observed_session_time(0, 2), 0.0);
  EXPECT_LT(probing.observed_session_time(0, 2), kPeriod);
  double total = 0.0;
  for (std::size_t j = 0; j < 3; ++j) total += probing.availability(0, j);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(ShardedProbing, UniformPriorBeforeAnyObservation) {
  Fixture f;
  ShardedProbing probing(f.state, f.partition, kPeriod, sim::rng::Stream(4));
  for (NodeId id = 0; id < 6; ++id) {
    EXPECT_EQ(probing.epoch(id), 0u);
    for (std::size_t j = 0; j <= 3; ++j) {
      EXPECT_DOUBLE_EQ(probing.availability(id, j), 1.0 / 3.0) << "node " << id << " slot " << j;
    }
  }
  // A probe that sees nobody leaves the prior in place; the first sighting
  // ends it, and slot d (not a neighbour) then reads 0.
  probing.probe(0, f.published);
  EXPECT_DOUBLE_EQ(probing.availability(0, 0), 1.0 / 3.0);
  f.state.online[1] = 1;
  probing.probe(0, f.published);
  EXPECT_DOUBLE_EQ(probing.availability(0, 0), 1.0);
  EXPECT_EQ(probing.availability(0, 3), 0.0);
}

TEST(ShardedProbing, CopyEstimatesFreezesASnapshot) {
  Fixture f;
  ShardedProbing live(f.state, f.partition, kPeriod, sim::rng::Stream(5));
  ShardedProbing snapshot(f.state, f.partition, kPeriod, sim::rng::Stream(5));
  // Node 3 stays down and node 5 is never probed, so the copy covers
  // unobserved slots and an untouched uniform prior too.
  for (NodeId id = 0; id < 6; ++id) f.state.online[id] = id == 3 ? 0 : 1;
  f.published = f.state.online;
  for (int round = 0; round < 3; ++round) {
    for (NodeId id = 0; id < 5; ++id) live.probe(id, f.published);
  }
  snapshot.copy_estimates(live);

  const auto bits = [](double x) {
    std::uint64_t b = 0;
    std::memcpy(&b, &x, sizeof b);
    return b;
  };
  std::vector<std::uint64_t> alpha;
  std::vector<std::uint64_t> session;
  std::vector<std::uint64_t> epochs;
  for (NodeId id = 0; id < 6; ++id) {
    EXPECT_EQ(snapshot.epoch(id), live.epoch(id));
    epochs.push_back(snapshot.epoch(id));
    for (std::size_t slot = 0; slot < 3; ++slot) {
      EXPECT_EQ(bits(snapshot.availability(id, slot)), bits(live.availability(id, slot)));
      EXPECT_EQ(bits(snapshot.observed_session_time(id, slot)),
                bits(live.observed_session_time(id, slot)));
      alpha.push_back(bits(snapshot.availability(id, slot)));
      session.push_back(bits(snapshot.observed_session_time(id, slot)));
    }
  }

  // The live estimator moves on; the copy does not.
  f.state.online[3] = 1;
  f.state.online[1] = 0;
  f.published = f.state.online;
  for (NodeId id = 0; id < 6; ++id) live.probe(id, f.published);
  bool live_moved = false;
  for (NodeId id = 0; id < 6; ++id) {
    EXPECT_GT(live.epoch(id), epochs[id]);
    EXPECT_EQ(snapshot.epoch(id), epochs[id]);
    for (std::size_t slot = 0; slot < 3; ++slot) {
      live_moved = live_moved || bits(live.availability(id, slot)) != alpha[id * 3 + slot];
      EXPECT_EQ(bits(snapshot.availability(id, slot)), alpha[id * 3 + slot]);
      EXPECT_EQ(bits(snapshot.observed_session_time(id, slot)), session[id * 3 + slot]);
    }
  }
  EXPECT_TRUE(live_moved);
  EXPECT_EQ(snapshot.probes_performed(), 0u);

  // D(0) = [1, 4, 2]: 3 is not a neighbour, so its slot is d.
  EXPECT_EQ(snapshot.slot_of(0, 4), 1u);
  EXPECT_EQ(snapshot.slot_of(0, 3), 3u);
  EXPECT_EQ(snapshot.availability_of(0, 3), 0.0);
}

TEST(ShardedProbing, AvailabilityStaysInUnitInterval) {
  // Edge quality's direct-delivery bound relies on alpha_s(.) <= 1: the
  // denominator is a left-to-right sum of the row's non-negative session
  // times, so it is at least each of them. Random liveness, probes, forgets
  // and snapshot copies must never produce an answer outside [0, 1].
  Fixture f;
  ShardedProbing live(f.state, f.partition, kPeriod, sim::rng::Stream(6));
  ShardedProbing snapshot(f.state, f.partition, kPeriod, sim::rng::Stream(6));
  sim::rng::Stream draws(7);
  const auto expect_unit = [](const ShardedProbing& p, const char* which) {
    for (NodeId id = 0; id < 6; ++id) {
      for (std::size_t j = 0; j <= 3; ++j) {
        const double a = p.availability(id, j);
        EXPECT_GE(a, 0.0) << which << " node " << id << " slot " << j;
        EXPECT_LE(a, 1.0) << which << " node " << id << " slot " << j;
      }
    }
  };
  for (int round = 0; round < 400; ++round) {
    for (NodeId id = 0; id < 6; ++id) {
      f.state.online[id] = draws.next_double() < 0.7 ? 1 : 0;
      f.published[id] = draws.next_double() < 0.7 ? 1 : 0;
    }
    const auto s = static_cast<NodeId>(draws.below(6));
    live.probe(s, f.published);
    if (draws.next_double() < 0.2) live.forget(s, static_cast<std::size_t>(draws.below(3)));
    if (round % 25 == 0) {
      snapshot.copy_estimates(live);
      expect_unit(snapshot, "snapshot");
    }
    expect_unit(live, "live");
  }
}
