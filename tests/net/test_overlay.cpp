#include "net/overlay.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <set>

#include "sim/simulator.hpp"

using namespace p2panon::net;
namespace sim = p2panon::sim;

namespace {

OverlayConfig small_config(double malicious = 0.0) {
  OverlayConfig cfg;
  cfg.node_count = 40;
  cfg.degree = 5;
  cfg.malicious_fraction = malicious;
  return cfg;
}

}  // namespace

TEST(Overlay, NeighborSetsHaveConfiguredDegree) {
  sim::Simulator s;
  Overlay o(small_config(), s, sim::rng::Stream(1));
  for (NodeId id = 0; id < o.size(); ++id) {
    EXPECT_EQ(o.neighbors(id).size(), 5u);
  }
}

TEST(Overlay, NeighborsDistinctAndNotSelf) {
  sim::Simulator s;
  Overlay o(small_config(), s, sim::rng::Stream(2));
  for (NodeId id = 0; id < o.size(); ++id) {
    std::set<NodeId> uniq;
    for (NodeId nb : o.neighbors(id)) {
      EXPECT_NE(nb, id);
      EXPECT_LT(nb, o.size());
      uniq.insert(nb);
    }
    EXPECT_EQ(uniq.size(), o.neighbors(id).size());
  }
}

TEST(Overlay, MaliciousFractionApplied) {
  sim::Simulator s;
  Overlay o(small_config(0.5), s, sim::rng::Stream(3));
  EXPECT_EQ(o.malicious_nodes().size(), 20u);
  EXPECT_EQ(o.good_nodes().size(), 20u);
}

TEST(Overlay, MaliciousFractionZeroAndOne) {
  sim::Simulator s1, s2;
  Overlay none(small_config(0.0), s1, sim::rng::Stream(4));
  EXPECT_TRUE(none.malicious_nodes().empty());
  Overlay all(small_config(1.0), s2, sim::rng::Stream(5));
  EXPECT_EQ(all.malicious_nodes().size(), all.size());
}

TEST(Overlay, AllNodesOfflineBeforeStart) {
  sim::Simulator s;
  Overlay o(small_config(), s, sim::rng::Stream(6));
  EXPECT_TRUE(o.online_nodes().empty());
}

TEST(Overlay, NodesJoinAfterStart) {
  sim::Simulator s;
  Overlay o(small_config(), s, sim::rng::Stream(7));
  o.start();
  s.run_until(sim::hours(2.0));
  EXPECT_FALSE(o.online_nodes().empty());
  EXPECT_GT(o.churn_events(), 0u);
}

TEST(Overlay, ChurnProducesLeavesAndRejoins) {
  sim::Simulator s;
  auto cfg = small_config();
  cfg.churn.session_median = sim::minutes(20.0);  // faster churn
  Overlay o(cfg, s, sim::rng::Stream(8));
  int joins = 0, leaves = 0;
  o.add_churn_observer([&](NodeId, bool online, sim::Time) { (online ? joins : leaves)++; });
  o.start();
  s.run_until(sim::hours(12.0));
  EXPECT_GT(joins, 40);   // rejoins happened
  EXPECT_GT(leaves, 10);
}

TEST(Overlay, TrueAvailabilityInUnitInterval) {
  sim::Simulator s;
  Overlay o(small_config(), s, sim::rng::Stream(9));
  o.start();
  s.run_until(sim::hours(6.0));
  for (NodeId id = 0; id < o.size(); ++id) {
    const double a = o.true_availability(id);
    EXPECT_GE(a, 0.0);
    EXPECT_LE(a, 1.0);
  }
}

TEST(Overlay, OnlineNeighborsSubsetOfNeighbors) {
  sim::Simulator s;
  Overlay o(small_config(), s, sim::rng::Stream(10));
  o.start();
  s.run_until(sim::hours(1.0));
  for (NodeId id = 0; id < o.size(); ++id) {
    auto nbs = o.neighbors(id);
    for (NodeId nb : o.online_neighbors(id)) {
      EXPECT_TRUE(o.is_online(nb));
      EXPECT_NE(std::find(nbs.begin(), nbs.end(), nb), nbs.end());
    }
  }
}

TEST(Overlay, ForceOnlineBringsNodeBack) {
  sim::Simulator s;
  Overlay o(small_config(), s, sim::rng::Stream(11));
  o.start();
  s.run_until(sim::hours(1.0));
  // Find any offline node (there is one early on) and force it online.
  for (NodeId id = 0; id < o.size(); ++id) {
    if (!o.is_online(id)) {
      o.force_online(id);
      EXPECT_TRUE(o.is_online(id));
      return;
    }
  }
  GTEST_SKIP() << "all nodes already online at probe time";
}

TEST(Overlay, MaliciousAlwaysOnlineStayOnline) {
  sim::Simulator s;
  auto cfg = small_config(0.3);
  cfg.malicious_always_online = true;
  cfg.churn.session_median = sim::minutes(15.0);
  Overlay o(cfg, s, sim::rng::Stream(12));
  o.start();
  s.run_until(sim::hours(24.0));
  for (NodeId id : o.malicious_nodes()) {
    EXPECT_TRUE(o.is_online(id)) << "availability attacker " << id << " went offline";
    EXPECT_NEAR(o.true_availability(id), 1.0, 1e-9);
  }
}

TEST(Overlay, DepartedNeighborsReplaced) {
  sim::Simulator s;
  auto cfg = small_config();
  cfg.churn.departure_probability = 0.5;  // departures happen fast
  cfg.churn.session_median = sim::minutes(10.0);
  Overlay o(cfg, s, sim::rng::Stream(13));
  int replacements = 0;
  o.add_neighbor_observer([&](NodeId s_, NodeId old_nb, NodeId fresh, sim::Time) {
    EXPECT_NE(old_nb, fresh);
    EXPECT_NE(fresh, s_);
    ++replacements;
  });
  o.start();
  s.run_until(sim::hours(24.0));
  EXPECT_GT(replacements, 0);
  // No surviving node keeps a departed neighbour (unless no candidate
  // existed, which cannot happen with 40 nodes and this horizon).
  for (NodeId id = 0; id < o.size(); ++id) {
    if (o.state().departed[id] != 0) continue;
    for (NodeId nb : o.neighbors(id)) {
      EXPECT_FALSE(o.state().departed[nb] != 0)
          << "node " << id << " still lists departed neighbour " << nb;
    }
  }
}

TEST(Overlay, DeterministicAcrossRuns) {
  auto run = [](std::uint64_t seed) {
    sim::Simulator s;
    Overlay o(small_config(0.2), s, sim::rng::Stream(seed));
    o.start();
    s.run_until(sim::hours(8.0));
    return std::make_tuple(o.churn_events(), o.online_nodes(), o.malicious_nodes());
  };
  EXPECT_EQ(run(99), run(99));
  EXPECT_NE(std::get<0>(run(99)), 0u);
}

TEST(Overlay, ChurnEventsCounterConsistentWithObserver) {
  sim::Simulator s;
  Overlay o(small_config(), s, sim::rng::Stream(14));
  std::uint64_t observed = 0;
  o.add_churn_observer([&](NodeId, bool, sim::Time) { ++observed; });
  o.start();
  s.run_until(sim::hours(4.0));
  EXPECT_EQ(observed, o.churn_events());
}

TEST(Overlay, CrashIsSilentButGroundTruthSeesIt) {
  sim::Simulator s;
  Overlay o(small_config(), s, sim::rng::Stream(15));
  o.start();
  s.run_until(sim::hours(1.0));
  NodeId victim = kInvalidNode;
  for (NodeId id = 0; id < o.size(); ++id) {
    if (o.is_online(id)) {
      victim = id;
      break;
    }
  }
  ASSERT_NE(victim, kInvalidNode);

  int notifications = 0;
  o.add_churn_observer([&](NodeId, bool, sim::Time) { ++notifications; });
  ASSERT_TRUE(o.crash(victim));
  EXPECT_EQ(notifications, 0) << "a silent crash must not notify observers";
  EXPECT_FALSE(o.is_online(victim));
  EXPECT_TRUE(o.appears_online(victim)) << "nobody was told, so it still appears up";
  EXPECT_DOUBLE_EQ(o.state().tracker[victim].last_leave(), s.now());

  // Crashing again is a no-op; recovery rejoins visibly.
  EXPECT_FALSE(o.crash(victim));
  o.recover(victim);
  EXPECT_TRUE(o.is_online(victim));
  EXPECT_GT(notifications, 0) << "recovery is an announced join";
}

TEST(Overlay, ForceOfflineIsAnnounced) {
  sim::Simulator s;
  Overlay o(small_config(), s, sim::rng::Stream(16));
  o.start();
  s.run_until(sim::hours(1.0));
  NodeId victim = kInvalidNode;
  for (NodeId id = 0; id < o.size(); ++id) {
    if (o.is_online(id)) {
      victim = id;
      break;
    }
  }
  ASSERT_NE(victim, kInvalidNode);
  int leaves = 0;
  o.add_churn_observer([&](NodeId, bool online, sim::Time) { leaves += online ? 0 : 1; });
  o.force_offline(victim);
  EXPECT_FALSE(o.is_online(victim));
  EXPECT_FALSE(o.appears_online(victim)) << "graceful leaves are visible immediately";
  EXPECT_EQ(leaves, 1);
}

TEST(Overlay, CrashedNodeSkipsItsPendingGracefulLeave) {
  sim::Simulator s;
  Overlay o(small_config(), s, sim::rng::Stream(17));
  o.start();
  s.run_until(sim::hours(1.0));
  NodeId victim = kInvalidNode;
  for (NodeId id = 0; id < o.size(); ++id) {
    if (o.is_online(id)) {
      victim = id;
      break;
    }
  }
  ASSERT_NE(victim, kInvalidNode);
  ASSERT_TRUE(o.crash(victim));
  o.recover(victim);
  // The pre-crash session's scheduled leave is stale (its leave epoch moved);
  // run far enough that it would have fired and check the node's state is
  // consistent: it can only go offline through announced churn now.
  bool crashed_state_seen = false;
  o.add_churn_observer([&](NodeId id, bool, sim::Time) {
    crashed_state_seen = crashed_state_seen || o.state().crashed[id] != 0;
  });
  s.run_until(s.now() + sim::hours(48.0));
  EXPECT_FALSE(crashed_state_seen);
  EXPECT_FALSE(o.state().crashed[victim] != 0);
}

namespace {

/// FNV-1a over 64-bit words, byte by byte (little end first).
struct Fnv {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  void operator()(std::uint64_t w) {
    for (int i = 0; i < 8; ++i) {
      h ^= (w >> (8 * i)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  }
};

/// Every hour, brings the three lowest-id finally-departed nodes back
/// (force_online clears `departed`), so the pin also covers resurrection:
/// a resurrected node is a replacement candidate again and can depart again.
struct Resurrector {
  Overlay& overlay;
  sim::Simulator& sim;
  std::uint64_t resurrected = 0;

  void tick() {
    int budget = 3;
    for (NodeId id = 0; id < overlay.size() && budget > 0; ++id) {
      if (overlay.state().departed[id] == 0) continue;
      overlay.force_online(id);
      ++resurrected;
      --budget;
    }
    sim.schedule_in(sim::hours(1.0), [this] { tick(); });
  }
};

}  // namespace

// Pins the whole neighbour-replacement sequence of a churn-heavy day: every
// NeighborObserver call (owner, old, fresh, time bits) in firing order and
// the final neighbour rows fold into one FNV-1a digest. Any change in which
// owners are visited, in what order, or which replacement each one draws
// moves the hex.
TEST(Overlay, ReplacementSequenceIsPinned) {
  sim::Simulator s;
  OverlayConfig cfg;
  cfg.node_count = 500;
  cfg.degree = 10;
  cfg.churn.departure_probability = 0.3;
  cfg.churn.session_median = sim::minutes(10.0);
  Overlay o(cfg, s, sim::rng::Stream(2718));

  Fnv fold;
  std::uint64_t replacements = 0;
  o.add_neighbor_observer([&](NodeId owner, NodeId old_nb, NodeId fresh, sim::Time when) {
    fold(owner);
    fold(old_nb);
    fold(fresh);
    fold(std::bit_cast<std::uint64_t>(when));
    ++replacements;
  });
  Resurrector res{o, s};
  s.schedule_at(sim::hours(1.0), [&res] { res.tick(); });
  o.start();
  s.run_until(sim::hours(24.0));

  for (NodeId id = 0; id < o.size(); ++id) {
    for (NodeId nb : o.neighbors(id)) fold(nb);
  }
  fold(o.churn_events());

  EXPECT_GT(replacements, 1000u);
  EXPECT_GT(res.resurrected, 20u);
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(fold.h));
  EXPECT_STREQ(hex, "e6c5a674033c1b35") << replacements << " replacements, "
                                         << res.resurrected << " resurrections";
}
