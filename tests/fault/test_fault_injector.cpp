// FaultInjector unit behaviour: the all-off config injects nothing, streams
// are deterministic, crashes are silent to observers but visible to ground
// truth, and probe false negatives degrade observations without touching
// liveness.
#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "net/overlay.hpp"
#include "sim/simulator.hpp"

using namespace p2panon;
using namespace p2panon::fault;
using net::NodeId;

namespace {

net::OverlayConfig stable_overlay(std::size_t n = 20) {
  net::OverlayConfig cfg;
  cfg.node_count = n;
  cfg.degree = 4;
  cfg.churn.join_interarrival_mean = sim::minutes(0.2);
  cfg.churn.session_min = sim::hours(90.0);
  cfg.churn.session_median = sim::hours(100.0);
  cfg.churn.session_max = sim::hours(200.0);
  cfg.churn.departure_probability = 0.0;
  return cfg;
}

}  // namespace

TEST(FaultConfig, DefaultIsAllOff) {
  const FaultConfig cfg;
  EXPECT_FALSE(cfg.enabled());
  FaultConfig loss = cfg;
  loss.link_loss = 0.01;
  EXPECT_TRUE(loss.enabled());
}

TEST(FaultInjector, AllOffInjectsNothing) {
  sim::Simulator s;
  net::Overlay o(stable_overlay(), s, sim::rng::Stream(1).child("o"));
  FaultInjector f(FaultConfig{}, o, sim::rng::Stream(1).child("f"));
  o.start();
  f.start();
  s.run_until(sim::hours(12.0));
  EXPECT_EQ(f.crashes(), 0u);
  for (NodeId a = 0; a < o.size(); ++a) {
    for (NodeId b = 0; b < o.size(); ++b) {
      if (a == b) continue;
      EXPECT_FALSE(f.drop_message(a, b));
      EXPECT_DOUBLE_EQ(f.extra_delay(a, b), 0.0);
      if (o.is_online(b)) {
        EXPECT_TRUE(f.probe_observation(a, b));
      }
    }
  }
  EXPECT_EQ(f.messages_dropped(), 0u);
  EXPECT_EQ(f.probe_false_negatives(), 0u);
}

TEST(FaultInjector, DeterministicAcrossInstances) {
  auto run = [] {
    sim::Simulator s;
    net::Overlay o(stable_overlay(), s, sim::rng::Stream(2).child("o"));
    FaultConfig cfg;
    cfg.link_loss = 0.3;
    cfg.delay_jitter = 0.5;
    cfg.crash_rate_per_hour = 2.0;
    FaultInjector f(cfg, o, sim::rng::Stream(2).child("f"));
    o.start();
    f.start();
    s.run_until(sim::hours(6.0));
    std::vector<bool> drops;
    std::vector<double> delays;
    for (int i = 0; i < 200; ++i) {
      drops.push_back(f.drop_message(0, 1));
      delays.push_back(f.extra_delay(0, 1));
    }
    return std::make_tuple(f.crashes(), drops, delays);
  };
  EXPECT_EQ(run(), run());
}

TEST(FaultInjector, CrashesAreSilentAndRecoveriesAnnounced) {
  sim::Simulator s;
  net::Overlay o(stable_overlay(), s, sim::rng::Stream(4).child("o"));
  FaultConfig cfg;
  cfg.crash_rate_per_hour = 4.0;
  cfg.crash_recovery_mean = sim::minutes(10.0);
  FaultInjector f(cfg, o, sim::rng::Stream(4).child("f"));

  o.start();
  s.run_until(sim::hours(2.0));  // everyone joined; join notifications done

  std::uint64_t offline_notifications = 0;
  std::uint64_t online_notifications = 0;
  o.add_churn_observer([&](NodeId, bool online, sim::Time) {
    (online ? online_notifications : offline_notifications) += 1;
  });
  f.start();
  s.run_until(s.now() + sim::hours(12.0));

  EXPECT_GT(f.crashes(), 0u) << "4/h over 12 h across 20 nodes must crash someone";
  // This world has no graceful churn (sessions are ~100 h), so every
  // offline event would have to come from a crash — and crashes are silent.
  EXPECT_EQ(offline_notifications, 0u) << "silent crashes must not notify observers";
  EXPECT_GT(online_notifications, 0u) << "recoveries are announced joins";
  // Ground truth saw the downtime even though observers did not.
  bool some_recorded_leave = false;
  for (NodeId v = 0; v < o.size(); ++v) {
    if (f.last_crash_time(v) >= 0.0) {
      EXPECT_GE(o.state().tracker[v].last_leave(), 0.0);
      some_recorded_leave = true;
    }
  }
  EXPECT_TRUE(some_recorded_leave);
}

TEST(FaultInjector, CrashWithoutRecoveryIsPermanent) {
  // crash_recovery_mean = 0 means "crashed for good": no recovery event is
  // ever scheduled, the node never rejoins, and last_recovery_time stays -1.
  sim::Simulator s;
  net::Overlay o(stable_overlay(), s, sim::rng::Stream(6).child("o"));
  FaultConfig cfg;
  cfg.crash_rate_per_hour = 4.0;
  cfg.crash_recovery_mean = 0.0;
  FaultInjector f(cfg, o, sim::rng::Stream(6).child("f"));

  o.start();
  s.run_until(sim::hours(2.0));  // everyone joined

  std::uint64_t online_notifications = 0;
  o.add_churn_observer([&](NodeId, bool online, sim::Time) {
    if (online) ++online_notifications;
  });
  f.start();
  s.run_until(s.now() + sim::hours(12.0));

  EXPECT_GT(f.crashes(), 0u);
  EXPECT_EQ(online_notifications, 0u) << "a node crashed for good must never rejoin";
  bool some_crashed = false;
  for (NodeId v = 0; v < o.size(); ++v) {
    EXPECT_DOUBLE_EQ(f.last_recovery_time(v), -1.0);
    if (f.last_crash_time(v) >= 0.0) {
      some_crashed = true;
      EXPECT_FALSE(o.is_online(v)) << "node " << v << " recovered without a recovery path";
    }
  }
  EXPECT_TRUE(some_crashed);
}

TEST(FaultInjector, ProbeFalseNegativesSuppressObservations) {
  sim::Simulator s;
  net::Overlay o(stable_overlay(), s, sim::rng::Stream(5).child("o"));
  FaultConfig cfg;
  cfg.probe_false_negative = 1.0;
  FaultInjector f(cfg, o, sim::rng::Stream(5).child("f"));
  o.start();
  s.run_until(sim::hours(1.0));
  for (NodeId b = 0; b < o.size(); ++b) {
    if (!o.is_online(b)) continue;
    EXPECT_FALSE(f.probe_observation(0, b)) << "pfn=1 must suppress every observation";
  }
  EXPECT_GT(f.probe_false_negatives(), 0u);
}
