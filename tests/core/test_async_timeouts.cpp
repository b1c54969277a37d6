// Timeout-driven failure handling in AsyncConnectionRunner: ack timeouts
// under total loss, NACK fast path for graceful leaves, silence for silent
// crashes, backoff desynchronisation, suspicion learning, and the
// regression for the offline-responder completion bug.
#include <gtest/gtest.h>

#include "core/async_path.hpp"
#include "core/suspicion.hpp"
#include "fault/fault.hpp"
#include "fixtures.hpp"
#include "transport/sim_transport.hpp"

using namespace p2panon;
using namespace p2panon::core;
using net::NodeId;

namespace {

struct AsyncHarness {
  explicit AsyncHarness(p2ptest::StableWorld& w)
      : builder(w.overlay, w.quality), strategy(), assign(w.overlay, strategy) {}

  AsyncResult establish(p2ptest::StableWorld& w, AsyncConfig cfg, std::uint32_t conn = 1,
                        fault::FaultInjector* faults = nullptr,
                        SuspicionTracker* suspicion = nullptr,
                        sim::Time drive = sim::hours(4.0)) {
    transport::SimTransport transport(w.simulator, w.overlay, faults);
    AsyncConnectionRunner runner(w.simulator, w.overlay, builder, transport, cfg, suspicion);
    AsyncResult captured;
    bool done = false;
    runner.establish(1, conn, 0, 19, Contract{}, assign, w.root.child("async", conn),
                     [&](const AsyncResult& r) {
                       captured = r;
                       done = true;
                     });
    w.simulator.run_until(w.simulator.now() + drive);
    EXPECT_TRUE(done) << "establishment never resolved";
    return captured;
  }

  PathBuilder builder;
  UtilityModelIRouting strategy;
  StrategyAssignment assign;
};

}  // namespace

TEST(AsyncTimeouts, TotalLossExhaustsAttemptsViaAckTimeouts) {
  p2ptest::StableWorld world{7};
  world.warmup();
  AsyncHarness h(world);

  fault::FaultConfig fcfg;
  fcfg.link_loss = 1.0;  // every leg dropped: only timers can fail the attempt
  fault::FaultInjector faults(fcfg, world.overlay, world.root.child("faults"));

  const AsyncResult r = h.establish(world, AsyncConfig{}, 1, &faults);
  EXPECT_FALSE(r.established);
  EXPECT_EQ(r.attempts, kMaxSetupAttempts);
  EXPECT_EQ(r.ack_timeouts, kMaxSetupAttempts)
      << "each attempt must die by exactly one ack timeout";
}

TEST(AsyncTimeouts, AckTimeoutsFeedSuspicion) {
  p2ptest::StableWorld world{7};
  world.warmup();
  AsyncHarness h(world);

  fault::FaultConfig fcfg;
  fcfg.link_loss = 1.0;
  fault::FaultInjector faults(fcfg, world.overlay, world.root.child("faults"));
  SuspicionTracker suspicion(world.overlay.size());

  (void)h.establish(world, AsyncConfig{}, 1, &faults, &suspicion);
  std::uint32_t total = 0;
  for (NodeId v = 0; v < world.overlay.size(); ++v) total += suspicion.count(v);
  EXPECT_EQ(total, kMaxSetupAttempts) << "one suspect recorded per timed-out attempt";
}

TEST(AsyncTimeouts, BackoffJitterDesynchronisesRetries) {
  // Two establishments with different streams must not retry in lockstep:
  // their jittered backoff draws differ, so failure resolution times differ.
  p2ptest::StableWorld world{11};
  world.warmup();
  AsyncHarness h(world);

  fault::FaultConfig fcfg;
  fcfg.link_loss = 1.0;
  fault::FaultInjector faults(fcfg, world.overlay, world.root.child("faults"));

  const sim::Time t0 = world.simulator.now();
  const AsyncResult a = h.establish(world, AsyncConfig{}, 1, &faults);
  const sim::Time ta = world.simulator.now();
  const AsyncResult b = h.establish(world, AsyncConfig{}, 2, &faults);
  EXPECT_FALSE(a.established);
  EXPECT_FALSE(b.established);
  EXPECT_NE(a.setup_time, b.setup_time)
      << "independent backoff streams must produce different retry schedules";
  EXPECT_GT(ta, t0);
}

TEST(AsyncTimeouts, GracefulOfflineResponderFailsFastViaNack) {
  // Regression for the confirm-step audit: a responder that left gracefully
  // must abort the attempt (NACK), never complete through a dead endpoint.
  p2ptest::StableWorld world{13};
  world.warmup();
  AsyncHarness h(world);

  world.overlay.force_offline(19);
  const AsyncResult r = h.establish(world, AsyncConfig{}, 1);
  EXPECT_FALSE(r.established);
  EXPECT_EQ(r.attempts, kMaxSetupAttempts);
  EXPECT_EQ(r.ack_timeouts, 0u) << "graceful leaves are refused, not timed out";
}

TEST(AsyncTimeouts, CrashedResponderTimesOutSilently) {
  p2ptest::StableWorld world{13};
  world.warmup();
  AsyncHarness h(world);

  ASSERT_TRUE(world.overlay.crash(19));
  const AsyncResult r = h.establish(world, AsyncConfig{}, 1);
  EXPECT_FALSE(r.established);
  EXPECT_GT(r.ack_timeouts, 0u) << "a crashed responder answers nothing; timers must fire";
}

TEST(AsyncTimeouts, KillingForwarderMidConfirmationAbortsAttempt) {
  // Learn the path and timing on a clean run, then rebuild the same-seeded
  // world and kill the first forwarder while the reverse confirmation is in
  // flight. The attempt must fail (detected via NACK or timeout) and the
  // final path must not route through the killed node as a forwarder.
  const auto clean = [] {
    p2ptest::StableWorld w{29};
    w.warmup();
    AsyncHarness h(w);
    return h.establish(w, AsyncConfig{}, 1);
  }();
  ASSERT_TRUE(clean.established);
  ASSERT_GE(clean.path.nodes.size(), 3u) << "need at least one forwarder to kill";
  const NodeId victim = clean.path.nodes[1];

  p2ptest::StableWorld world{29};
  world.warmup();
  AsyncHarness h(world);
  // Strike while the confirmation retraces the path: after the forward pass
  // completes (half the round trip) but strictly before the confirm reaches
  // the victim on the way back at setup_time - latency(initiator, victim).
  const sim::Time first_leg =
      world.overlay.links().transfer_time(clean.path.nodes[0], victim);
  const sim::Time victim_confirm_at = clean.setup_time - first_leg;
  const sim::Time kill_at = 0.5 * (0.5 * clean.setup_time + victim_confirm_at);
  ASSERT_LT(kill_at, victim_confirm_at);
  world.simulator.schedule_in(kill_at, [&] { world.overlay.force_offline(victim); });
  const AsyncResult r = h.establish(world, AsyncConfig{}, 1);
  EXPECT_GT(r.attempts, 1u) << "killing a relay mid-confirmation must force a retry";
  if (r.established) {
    for (std::size_t i = 1; i + 1 < r.path.nodes.size(); ++i) {
      EXPECT_NE(r.path.nodes[i], victim)
          << "final path routes through a node known to be offline";
    }
  }
}

TEST(AsyncTimeouts, RelayTimesNeverPassThroughCrashedNode) {
  // Soak: under crash + loss faults, every established path's forward relay
  // times must be consistent with ground truth — no node handled the setup
  // payload while it was crashed.
  p2ptest::StableWorld world{31};
  world.warmup();
  AsyncHarness h(world);

  fault::FaultConfig fcfg;
  fcfg.link_loss = 0.05;
  fcfg.crash_rate_per_hour = 6.0;
  fcfg.crash_recovery_mean = sim::minutes(5.0);
  fault::FaultInjector faults(fcfg, world.overlay, world.root.child("faults"));
  faults.start();

  int established = 0;
  for (std::uint32_t conn = 1; conn <= 12; ++conn) {
    world.overlay.force_online(0);
    world.overlay.force_online(19);
    const AsyncResult r = h.establish(world, AsyncConfig{}, conn, &faults, nullptr,
                                      sim::minutes(30.0));
    if (!r.established) continue;
    ++established;
    ASSERT_EQ(r.relay_times.size(), r.path.nodes.size());
    for (std::size_t i = 0; i < r.path.nodes.size(); ++i) {
      const NodeId v = r.path.nodes[i];
      const sim::Time crashed_at = faults.last_crash_time(v);
      if (crashed_at < 0.0 || crashed_at > r.relay_times[i]) continue;
      const sim::Time recovered_at = faults.last_recovery_time(v);
      EXPECT_TRUE(recovered_at > crashed_at && recovered_at <= r.relay_times[i])
          << "node " << v << " relayed at " << r.relay_times[i]
          << " but crashed at " << crashed_at << " and recovered at " << recovered_at;
    }
  }
  EXPECT_GT(established, 0) << "soak produced no established paths to audit";
}
