#include "net/probing.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <memory>
#include <vector>

#include "net/overlay.hpp"
#include "sim/simulator.hpp"

using namespace p2panon::net;
namespace sim = p2panon::sim;

namespace {

OverlayConfig stable_config() {
  OverlayConfig cfg;
  cfg.node_count = 20;
  cfg.degree = 4;
  // Long sessions and no departures: nodes mostly stay online.
  cfg.churn.session_median = sim::hours(50.0);
  cfg.churn.session_min = sim::hours(40.0);
  cfg.churn.session_max = sim::hours(100.0);
  cfg.churn.departure_probability = 0.0;
  cfg.churn.join_interarrival_mean = sim::minutes(0.5);
  return cfg;
}

}  // namespace

TEST(Probing, EstimatesNormaliseToOne) {
  sim::Simulator s;
  Overlay o(stable_config(), s, sim::rng::Stream(1));
  ProbingEstimator probing(o, ProbingConfig{}, sim::rng::Stream(1).child("p"));
  o.start();
  s.run_until(sim::hours(4.0));
  for (NodeId id = 0; id < o.size(); ++id) {
    double total = 0.0;
    for (NodeId nb : o.neighbors(id)) total += probing.availability(id, nb);
    EXPECT_NEAR(total, 1.0, 1e-9) << "alpha_s must normalise over D(s)";
  }
}

TEST(Probing, UniformPriorBeforeObservations) {
  sim::Simulator s;
  Overlay o(stable_config(), s, sim::rng::Stream(2));
  ProbingEstimator probing(o, ProbingConfig{}, sim::rng::Stream(2).child("p"));
  // No simulation run: no probes yet.
  for (NodeId nb : o.neighbors(0)) {
    EXPECT_DOUBLE_EQ(probing.availability(0, nb), 1.0 / 4.0);
  }
}

TEST(Probing, ProbesAccumulateSessionTime) {
  sim::Simulator s;
  Overlay o(stable_config(), s, sim::rng::Stream(3));
  ProbingEstimator probing(o, ProbingConfig{sim::minutes(5.0)}, sim::rng::Stream(3).child("p"));
  o.start();
  s.run_until(sim::hours(8.0));
  EXPECT_GT(probing.probes_performed(), 0u);
  // With everyone long-lived, observed session times grow roughly with the
  // horizon.
  bool some_accumulation = false;
  for (NodeId id = 0; id < o.size() && !some_accumulation; ++id) {
    for (NodeId nb : o.neighbors(id)) {
      if (probing.observed_session_time(id, nb) > sim::hours(1.0)) {
        some_accumulation = true;
        break;
      }
    }
  }
  EXPECT_TRUE(some_accumulation);
}

TEST(Probing, StableNeighborsConvergeTowardUniform) {
  // With all neighbours equally long-lived, estimates approach 1/d.
  sim::Simulator s;
  Overlay o(stable_config(), s, sim::rng::Stream(4));
  ProbingEstimator probing(o, ProbingConfig{sim::minutes(5.0)}, sim::rng::Stream(4).child("p"));
  o.start();
  s.run_until(sim::hours(30.0));
  for (NodeId nb : o.neighbors(0)) {
    EXPECT_NEAR(probing.availability(0, nb), 0.25, 0.1);
  }
}

TEST(Probing, ChurningNeighborScoresLowerThanStableOne) {
  sim::Simulator s;
  OverlayConfig cfg;
  cfg.node_count = 30;
  cfg.degree = 6;
  cfg.churn.session_median = sim::minutes(30.0);  // real churn
  cfg.churn.session_min = sim::minutes(5.0);
  cfg.churn.session_max = sim::hours(8.0);
  cfg.churn.departure_probability = 0.0;
  cfg.churn.offline_gap_mean = sim::minutes(60.0);
  Overlay o(cfg, s, sim::rng::Stream(5));
  ProbingEstimator probing(o, ProbingConfig{sim::minutes(5.0)}, sim::rng::Stream(5).child("p"));
  o.start();
  s.run_until(sim::hours(48.0));

  // Compare estimated vs true availability rank correlation in aggregate:
  // the neighbour with the highest true availability should rarely have the
  // lowest estimate. Count agreements over all nodes.
  int agree = 0, total = 0;
  for (NodeId id = 0; id < o.size(); ++id) {
    if (!o.is_online(id)) continue;
    NodeId best_true = kInvalidNode, worst_true = kInvalidNode;
    double bt = -1, wt = 2;
    for (NodeId nb : o.neighbors(id)) {
      const double a = o.true_availability(nb);
      if (a > bt) {
        bt = a;
        best_true = nb;
      }
      if (a < wt) {
        wt = a;
        worst_true = nb;
      }
    }
    if (best_true == kInvalidNode || best_true == worst_true || bt - wt < 0.2) continue;
    ++total;
    if (probing.availability(id, best_true) >= probing.availability(id, worst_true)) ++agree;
  }
  if (total < 3) GTEST_SKIP() << "not enough contrast in availabilities";
  EXPECT_GT(static_cast<double>(agree) / total, 0.6)
      << "estimates should usually rank a stable neighbour above a churner";
}

TEST(Probing, OfflineNodeStopsProbing) {
  sim::Simulator s;
  OverlayConfig cfg = stable_config();
  cfg.node_count = 4;
  cfg.degree = 2;
  cfg.churn.session_min = sim::minutes(30.0);
  cfg.churn.session_median = sim::minutes(40.0);  // must stay < sqrt(min*max)
  cfg.churn.session_max = sim::minutes(60.0);
  cfg.churn.offline_gap_mean = sim::hours(100.0);  // leaves and stays away
  Overlay o(cfg, s, sim::rng::Stream(6));
  ProbingEstimator probing(o, ProbingConfig{sim::minutes(5.0)}, sim::rng::Stream(6).child("p"));
  o.start();
  s.run_until(sim::hours(2.0));
  const auto probes_at_2h = probing.probes_performed();
  s.run_until(sim::hours(20.0));
  // All nodes offline after ~1h sessions; probe count must stop growing.
  EXPECT_EQ(probing.probes_performed(), probes_at_2h);
}

TEST(Probing, EpochAdvancesWithProbesAndIsStableAcrossReads) {
  sim::Simulator s;
  Overlay o(stable_config(), s, sim::rng::Stream(8));
  ProbingEstimator probing(o, ProbingConfig{sim::minutes(5.0)}, sim::rng::Stream(8).child("p"));
  std::vector<std::uint64_t> before;
  for (NodeId id = 0; id < o.size(); ++id) before.push_back(probing.epoch(id));
  o.start();
  s.run_until(sim::hours(4.0));
  // Every node probed at least once in 4 hours, so every epoch moved.
  bool all_advanced = true;
  for (NodeId id = 0; id < o.size(); ++id) {
    if (probing.epoch(id) <= before[id]) all_advanced = false;
  }
  EXPECT_TRUE(all_advanced);
  // Reads never move the epoch: equal epochs must mean equal answers.
  const std::uint64_t e = probing.epoch(0);
  for (NodeId nb : o.neighbors(0)) (void)probing.availability(0, nb);
  EXPECT_EQ(probing.epoch(0), e);
}

TEST(Probing, DeterministicAcrossIdenticalRuns) {
  auto run = [] {
    sim::Simulator s;
    Overlay o(stable_config(), s, sim::rng::Stream(7));
    ProbingEstimator probing(o, ProbingConfig{}, sim::rng::Stream(7).child("p"));
    o.start();
    s.run_until(sim::hours(6.0));
    std::vector<double> snapshot;
    for (NodeId id = 0; id < o.size(); ++id) {
      for (NodeId nb : o.neighbors(id)) snapshot.push_back(probing.availability(id, nb));
    }
    return snapshot;
  };
  EXPECT_EQ(run(), run());
}

TEST(Probing, OracleFalseNegativesFreezeSessionTimes) {
  // An always-dead oracle (total probe false negatives) must stop session
  // time from accumulating — probes still run and bump epochs, but every
  // observation says "down", so estimates stay at the uniform prior.
  sim::Simulator s;
  Overlay o(stable_config(), s, sim::rng::Stream(5));
  ProbingEstimator probing(o, ProbingConfig{sim::minutes(5.0)}, sim::rng::Stream(5).child("p"));
  probing.set_probe_oracle([](NodeId, NodeId) { return false; });
  o.start();
  s.run_until(sim::hours(8.0));
  EXPECT_GT(probing.probes_performed(), 0u);
  for (NodeId id = 0; id < o.size(); ++id) {
    if (o.is_online(id)) {
      EXPECT_GT(probing.epoch(id), 0u);
    }
    for (NodeId nb : o.neighbors(id)) {
      EXPECT_DOUBLE_EQ(probing.observed_session_time(id, nb), 0.0);
    }
  }
  // Uniform prior survives: no observations ever accumulated.
  for (NodeId nb : o.neighbors(0)) {
    EXPECT_DOUBLE_EQ(probing.availability(0, nb), 1.0 / 4.0);
  }
}

TEST(Probing, TruthfulOracleMatchesNoOracleBitwise) {
  // An oracle that just relays ground truth must reproduce the oracle-free
  // estimator exactly (the fault-free baseline guarantee).
  auto run = [](bool with_oracle) {
    sim::Simulator s;
    auto o = std::make_unique<Overlay>(stable_config(), s, sim::rng::Stream(6));
    ProbingEstimator probing(*o, ProbingConfig{sim::minutes(5.0)},
                             sim::rng::Stream(6).child("p"));
    if (with_oracle) {
      probing.set_probe_oracle(
          [&o = *o](NodeId, NodeId target) { return o.is_online(target); });
    }
    o->start();
    s.run_until(sim::hours(8.0));
    std::vector<double> alphas;
    for (NodeId id = 0; id < o->size(); ++id) {
      for (NodeId nb : o->neighbors(id)) alphas.push_back(probing.availability(id, nb));
    }
    return alphas;
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(Probing, NeighborReplacementRestartsTheSlot) {
  // Final departures replace neighbours in place. The fresh neighbour starts
  // unobserved, the estimate epoch of the owner moves, and alpha over the
  // new D(s) still normalises. Observers registered on both sides of the
  // estimator's own see the slot before and after it is reset.
  sim::Simulator s;
  OverlayConfig cfg;
  cfg.node_count = 20;
  cfg.degree = 4;
  cfg.churn.session_median = sim::minutes(30.0);
  cfg.churn.session_min = sim::minutes(5.0);
  cfg.churn.session_max = sim::hours(4.0);
  cfg.churn.offline_gap_mean = sim::minutes(20.0);
  cfg.churn.departure_probability = 0.2;
  cfg.churn.join_interarrival_mean = sim::minutes(0.5);
  Overlay o(cfg, s, sim::rng::Stream(9));

  const ProbingEstimator* est = nullptr;
  std::uint64_t epoch_before = 0;
  int replacements = 0;
  o.add_neighbor_observer([&](NodeId owner, NodeId, NodeId, sim::Time) {
    epoch_before = est->epoch(owner);
  });
  ProbingEstimator probing(o, ProbingConfig{sim::minutes(5.0)}, sim::rng::Stream(9).child("p"));
  est = &probing;
  o.add_neighbor_observer([&](NodeId owner, NodeId, NodeId fresh, sim::Time) {
    ++replacements;
    EXPECT_EQ(probing.observed_session_time(owner, fresh), 0.0);
    EXPECT_GT(probing.epoch(owner), epoch_before);
    double total = 0.0;
    for (NodeId nb : o.neighbors(owner)) total += probing.availability(owner, nb);
    EXPECT_NEAR(total, 1.0, 1e-9);
  });
  o.start();
  s.run_until(sim::hours(6.0));
  EXPECT_GT(replacements, 0);

  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over 64-bit words
  auto mix = [&h](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (word >> (8 * byte)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  for (NodeId id = 0; id < o.size(); ++id) {
    double total = 0.0;
    bool observed = false;
    for (NodeId nb : o.neighbors(id)) {
      total += probing.availability(id, nb);
      observed = observed || probing.observed_session_time(id, nb) > 0.0;
    }
    if (observed) {
      EXPECT_NEAR(total, 1.0, 1e-9);
    }
    mix(probing.epoch(id));
    // Every pair, neighbours or not: a non-neighbour reads 0 once s has
    // observations and the uniform prior before.
    for (NodeId u = 0; u < o.size(); ++u) {
      mix(std::bit_cast<std::uint64_t>(probing.availability(id, u)));
    }
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
  EXPECT_STREQ(hex, "f10d7cba17dd429f");
}
