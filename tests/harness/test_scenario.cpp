#include "harness/scenario.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

using namespace p2panon;
using namespace p2panon::harness;

namespace {

/// Scaled-down scenario for fast tests: 20 nodes, 10 pairs, 6 connections.
ScenarioConfig small_config(std::uint64_t seed = 1) {
  ScenarioConfig cfg = paper_default_config(seed);
  cfg.overlay.node_count = 20;
  cfg.overlay.degree = 4;
  cfg.pair_count = 10;
  cfg.connections_per_pair = 6;
  cfg.warmup = sim::minutes(30.0);
  cfg.pair_start_window = sim::minutes(30.0);
  return cfg;
}

}  // namespace

TEST(Scenario, PaperDefaultsMatchSectionThree) {
  const ScenarioConfig cfg = paper_default_config();
  EXPECT_EQ(cfg.overlay.node_count, 40u);
  EXPECT_EQ(cfg.overlay.degree, 5u);
  EXPECT_EQ(cfg.pair_count, 100u);
  EXPECT_EQ(cfg.connections_per_pair, 20u);
  EXPECT_DOUBLE_EQ(cfg.p_f_lo, 50.0);
  EXPECT_DOUBLE_EQ(cfg.p_f_hi, 100.0);
  EXPECT_DOUBLE_EQ(cfg.weights.w_selectivity, 0.5);
  EXPECT_DOUBLE_EQ(cfg.overlay.churn.session_median, sim::minutes(60.0));
}

TEST(Scenario, ModelTwoWithZeroLookaheadThrows) {
  ScenarioConfig cfg = small_config();
  cfg.good_strategy = core::StrategyKind::kUtilityModelII;
  cfg.lookahead_depth = 0;
  EXPECT_THROW((void)ScenarioRunner(cfg).run(), std::invalid_argument);
}

TEST(Scenario, OutOfRangeValuesAreRefusedByName) {
  // Each case breaks one range check: validate() names the field, and both
  // runners throw that message before building anything.
  const std::pair<const char*, void (*)(ScenarioConfig&)> cases[] = {
      {"overlay.node_count", [](ScenarioConfig& c) { c.overlay.node_count = 1; }},
      {"overlay.degree", [](ScenarioConfig& c) { c.overlay.degree = 0; }},
      {"overlay.degree", [](ScenarioConfig& c) { c.overlay.degree = c.overlay.node_count; }},
      {"overlay.malicious_fraction", [](ScenarioConfig& c) { c.overlay.malicious_fraction = -0.1; }},
      {"overlay.malicious_fraction", [](ScenarioConfig& c) { c.overlay.malicious_fraction = 1.5; }},
      {"tau", [](ScenarioConfig& c) { c.tau = -1.0; }},
      {"tau", [](ScenarioConfig& c) { c.tau = std::nan(""); }},
      {"tau", [](ScenarioConfig& c) { c.tau = std::numeric_limits<double>::infinity(); }},
      {"tau", [](ScenarioConfig& c) { c.tau = 1e9; }},  // the initiator cannot fund the escrow
      {"tau", [](ScenarioConfig& c) { c.pair_count = 100'000'000; }},  // nor 1e8 sets of it
      {"p_f_lo", [](ScenarioConfig& c) { c.p_f_lo = -1.0; }},  // a negative escrow
      {"p_f_hi", [](ScenarioConfig& c) { c.p_f_hi = std::numeric_limits<double>::infinity(); }},
      {"overlay.link.cost_scale",
       [](ScenarioConfig& c) {
         c.overlay.link.cost_scale = -std::numeric_limits<double>::infinity();
       }},
      {"p_forward", [](ScenarioConfig& c) { c.p_forward = 2.0; }},
      {"p_forward", [](ScenarioConfig& c) { c.p_forward = -0.5; }},
      {"weights.w_selectivity", [](ScenarioConfig& c) { c.weights = {-0.5, 1.5}; }},
      {"weights.w_availability", [](ScenarioConfig& c) { c.weights = {1.5, -0.5}; }},
      {"weights.w_selectivity", [](ScenarioConfig& c) { c.weights.w_selectivity = std::nan(""); }},
      {"weights.w_selectivity + w_availability",
       [](ScenarioConfig& c) { c.weights = {0.75, 0.5}; }},
      {"weights.w_selectivity + w_availability",
       [](ScenarioConfig& c) { c.weights = {0.5, 0.5 - 1e-11}; }},
      {"p_f_lo", [](ScenarioConfig& c) { c.p_f_lo = c.p_f_hi + 1.0; }},
      {"adversary.drop_probability", [](ScenarioConfig& c) { c.adversary.drop_probability = 1.5; }},
      {"adversary.drop_probability",
       [](ScenarioConfig& c) { c.adversary.drop_probability = -0.2; }},
      {"adversary.drop_probability",
       [](ScenarioConfig& c) { c.adversary.drop_probability = std::nan(""); }},
      {"fault.link_loss", [](ScenarioConfig& c) { c.fault.link_loss = 1.5; }},
      {"fault.probe_false_negative",
       [](ScenarioConfig& c) { c.fault.probe_false_negative = -0.1; }},
      {"fault.bank.claim_loss", [](ScenarioConfig& c) { c.fault.bank.claim_loss = std::nan(""); }},
      {"fault.bank.initiator_crash", [](ScenarioConfig& c) { c.fault.bank.initiator_crash = 2.0; }},
      {"fault.bank.forwarder_crash",
       [](ScenarioConfig& c) { c.fault.bank.forwarder_crash = -0.5; }},
      {"overlay.churn.departure_probability",
       [](ScenarioConfig& c) { c.overlay.churn.departure_probability = 1.5; }},
      {"engine_shards", [](ScenarioConfig& c) { c.engine_shards = 0; }},
      {"engine_window", [](ScenarioConfig& c) { c.engine_window = 0.0; }},
      {"engine_window", [](ScenarioConfig& c) { c.engine_window = -60.0; }},
      {"view_refresh", [](ScenarioConfig& c) { c.view_refresh = -1.0; }},
      {"overlay.churn.session_min", [](ScenarioConfig& c) { c.overlay.churn.session_min = 0.0; }},
      {"overlay.churn.session_min",
       [](ScenarioConfig& c) { c.overlay.churn.session_min = c.overlay.churn.session_max; }},
      {"overlay.churn.session_median",
       [](ScenarioConfig& c) { c.overlay.churn.session_median = -300.0; }},
      {"overlay.churn.session_median",
       [](ScenarioConfig& c) { c.overlay.churn.session_median = c.overlay.churn.session_min; }},
      {"overlay.churn.session_median",
       [](ScenarioConfig& c) {  // the log-uniform limit sqrt(min * max) is out of reach
         c.overlay.churn.session_median =
             std::sqrt(c.overlay.churn.session_min * c.overlay.churn.session_max);
       }},
      {"probing.period", [](ScenarioConfig& c) { c.probing.period = 0.0; }},
      {"overlay.churn.join_interarrival_mean",
       [](ScenarioConfig& c) { c.overlay.churn.join_interarrival_mean = -1.0; }},
      {"overlay.churn.offline_gap_mean",
       [](ScenarioConfig& c) { c.overlay.churn.offline_gap_mean = std::nan(""); }},
      {"connection_interval_mean", [](ScenarioConfig& c) { c.connection_interval_mean = 0.0; }},
      {"overlay.link.bandwidth_lo", [](ScenarioConfig& c) { c.overlay.link.bandwidth_lo = 0.0; }},
      {"overlay.link.bandwidth_hi",
       [](ScenarioConfig& c) { c.overlay.link.bandwidth_hi = -1.0; }},
      {"overlay.link.bandwidth_lo",
       [](ScenarioConfig& c) { c.overlay.link.bandwidth_lo = c.overlay.link.bandwidth_hi + 1.0; }},
      {"data_phase.keepalive_interval",
       [](ScenarioConfig& c) { c.data_phase.keepalive_interval = 0.0; }},
      {"overlay.link.payload_size", [](ScenarioConfig& c) { c.overlay.link.payload_size = -1.0; }},
      {"overlay.link.propagation_delay",
       [](ScenarioConfig& c) { c.overlay.link.propagation_delay = std::nan(""); }},
      {"warmup", [](ScenarioConfig& c) { c.warmup = std::nan(""); }},
      {"pair_start_window", [](ScenarioConfig& c) { c.pair_start_window = std::nan(""); }},
      {"fault.delay_jitter", [](ScenarioConfig& c) { c.fault.delay_jitter = -1.0; }},
      {"fault.crash_rate_per_hour", [](ScenarioConfig& c) { c.fault.crash_rate_per_hour = -1.0; }},
      {"fault.crash_recovery_mean",
       [](ScenarioConfig& c) { c.fault.crash_recovery_mean = -60.0; }},
      {"fault.bank.claim_delay_mean",
       [](ScenarioConfig& c) { c.fault.bank.claim_delay_mean = -1.0; }},
      {"fault.bank.claim_deadline", [](ScenarioConfig& c) { c.fault.bank.claim_deadline = -1.0; }},
      {"fault.bank.close_after", [](ScenarioConfig& c) { c.fault.bank.close_after = std::nan(""); }},
      {"fault.bank.claim_spread", [](ScenarioConfig& c) { c.fault.bank.claim_spread = -1.0; }},
      {"async_setup.attempt_deadline",
       [](ScenarioConfig& c) { c.async_setup.attempt_deadline = -1.0; }},
      {"data_phase.duration", [](ScenarioConfig& c) { c.data_phase.duration = -1.0; }},
  };
  for (const auto& [field, set] : cases) {
    for (const std::uint32_t shards : {1u, 4u}) {
      ScenarioConfig cfg = small_config();
      cfg.engine_shards = shards;
      set(cfg);
      const std::string err = cfg.validate();
      EXPECT_EQ(err.rfind(std::string("ScenarioConfig::") + field + " = ", 0), 0u) << err;
      try {
        (void)ScenarioRunner(cfg).run();
        ADD_FAILURE() << field << " ran at K = " << shards;
      } catch (const std::invalid_argument& e) {
        EXPECT_EQ(e.what(), err);
      }
    }
  }
  // The bounds themselves are in range.
  ScenarioConfig edge = small_config();
  edge.overlay.node_count = 2;
  edge.overlay.degree = 1;
  edge.overlay.malicious_fraction = 1.0;
  edge.tau = 0.0;
  edge.p_forward = 0.0;
  edge.weights = {1.0, 0.0};
  edge.p_f_lo = edge.p_f_hi;
  EXPECT_EQ(edge.validate(), "");
  edge.weights = {0.0, 1.0};
  EXPECT_EQ(edge.validate(), "");
  edge.weights = {0.1, 1.0 - 0.1 + 1e-13};  // within the sum's tolerance
  EXPECT_EQ(edge.validate(), "");
  edge.adversary.drop_probability = 1.0;
  edge.fault.link_loss = 1.0;
  edge.overlay.churn.departure_probability = 0.0;
  edge.view_refresh = 0.0;
  EXPECT_EQ(edge.validate(), "");
  edge.overlay.churn.session_median =
      0.999 * std::sqrt(edge.overlay.churn.session_min * edge.overlay.churn.session_max);
  EXPECT_EQ(edge.validate(), "");
  edge.overlay.link.bandwidth_lo = edge.overlay.link.bandwidth_hi;
  edge.overlay.link.payload_size = 0.0;
  edge.overlay.link.propagation_delay = 0.0;
  edge.warmup = 0.0;
  edge.pair_start_window = 0.0;
  edge.fault.crash_recovery_mean = 0.0;  // crashed for good
  edge.fault.bank.claim_spread = 0.0;
  edge.async_setup.attempt_deadline = 0.0;  // off
  edge.data_phase.duration = 0.0;
  EXPECT_EQ(edge.validate(), "");
  // The funding bound: the largest tau whose worst-case escrow, summed over
  // every pair, one initiator's balance still covers.
  const double instances = edge.connections_per_pair * (1.0 + core::kMaxReformations) *
                           edge.path_builder.max_forwarders;
  const double p_f_milli = edge.p_f_hi * 1000.0;
  const double tau_max =
      (kInitialBalanceCredits * 1000.0 / static_cast<double>(edge.pair_count) - 0.5 -
       instances * (p_f_milli + 0.5)) /
      p_f_milli;
  edge.tau = 0.999 * tau_max;
  EXPECT_EQ(edge.validate(), "");
  edge.tau = 1.001 * tau_max;
  EXPECT_EQ(edge.validate().rfind("ScenarioConfig::tau = ", 0), 0u);
}

TEST(Scenario, MutatedConfigsAreRefusedByNameOrConserveMoney) {
  // Config-mutation smoke over the field table: every real leaf set to -1, 0,
  // NaN and +inf, and every count set to 0, one at a time, from a plain and a
  // fault-mode K = 1 base and a K = 4 base. A mutant is either refused with
  // the leaf named (the weights simplex, the session shape and p_f_lo <=
  // p_f_hi may name a partner field instead), or it runs with money
  // conserved and the settlement reconciled. No mutant may abort.
  ScenarioConfig plain = small_config();
  plain.pair_count = 8;
  plain.connections_per_pair = 3;
  ScenarioConfig faulty = plain;
  faulty.fault.link_loss = 0.05;
  faulty.fault.bank.claim_loss = 0.1;
  ScenarioConfig sharded = plain;
  sharded.engine_shards = 4;

  const auto names_leaf = [](const std::string& err, const std::string& leaf) {
    const auto starts = [&err](const std::string& prefix) { return err.rfind(prefix, 0) == 0; };
    if (starts("ScenarioConfig::" + leaf + " = ")) return true;
    if (err == "the sharded paper runner does not implement ScenarioConfig::" + leaf) return true;
    if (leaf.rfind("weights.", 0) == 0) return starts("ScenarioConfig::weights.");
    if (leaf.rfind("overlay.churn.session_", 0) == 0) {
      return starts("ScenarioConfig::overlay.churn.session_");
    }
    return leaf == "p_f_hi" && starts("ScenarioConfig::p_f_lo = ");
  };

  std::size_t leaves = 0;
  for_each_config_field(plain, [&leaves](std::string_view, const auto&, Runners) { ++leaves; });
  const double reals[] = {-1.0, 0.0, std::nan(""), std::numeric_limits<double>::infinity()};
  std::size_t refused = 0, ran = 0;
  for (const ScenarioConfig* base : {&plain, &faulty, &sharded}) {
    for (std::size_t index = 0; index < leaves; ++index) {
      for (std::size_t m = 0; m < std::size(reals); ++m) {
        ScenarioConfig cfg = *base;
        std::string leaf;
        std::size_t i = 0;
        for_each_config_field(cfg, [&](std::string_view name, auto& value, Runners) {
          using T = std::remove_cvref_t<decltype(value)>;
          if (i++ != index) return;
          if constexpr (std::is_same_v<T, double>) {
            value = reals[m];
            leaf = name;
          } else if constexpr (std::is_integral_v<T> && !std::is_same_v<T, bool>) {
            if (m != 0) return;
            value = 0;
            leaf = name;
          }
        });
        if (leaf.empty()) continue;  // no such mutation for this leaf
        SCOPED_TRACE(leaf + " <- mutation " + std::to_string(m) + " at K = " +
                     std::to_string(base->engine_shards));
        try {
          const ScenarioResult r = ScenarioRunner(cfg).run();
          ++ran;
          EXPECT_TRUE(r.payment_conserved);
          EXPECT_TRUE(r.settlement_reconciled);
        } catch (const std::invalid_argument& e) {
          ++refused;
          EXPECT_TRUE(names_leaf(e.what(), leaf)) << e.what();
        }
      }
    }
  }
  EXPECT_GT(refused, 0u);
  EXPECT_GT(ran, 0u);
}

TEST(Scenario, RunsAllConnections) {
  const ScenarioResult r = ScenarioRunner(small_config()).run();
  EXPECT_EQ(r.connections_completed, 60u);
  EXPECT_EQ(r.forwarder_set_size.count(), 10u);  // one sample per pair
  EXPECT_GT(r.churn_events, 0u);
  EXPECT_GT(r.probes, 0u);
}

TEST(Scenario, PaymentConservationHolds) {
  const ScenarioResult r = ScenarioRunner(small_config()).run();
  EXPECT_TRUE(r.payment_conserved);
  EXPECT_GT(r.total_paid_credits, 0.0);
}

TEST(Scenario, DeterministicInSeed) {
  const ScenarioResult a = ScenarioRunner(small_config(7)).run();
  const ScenarioResult b = ScenarioRunner(small_config(7)).run();
  EXPECT_DOUBLE_EQ(a.good_payoff.mean(), b.good_payoff.mean());
  EXPECT_DOUBLE_EQ(a.forwarder_set_size.mean(), b.forwarder_set_size.mean());
  EXPECT_EQ(a.good_payoff_samples, b.good_payoff_samples);
  EXPECT_EQ(a.churn_events, b.churn_events);
}

TEST(Scenario, DifferentSeedsDiffer) {
  const ScenarioResult a = ScenarioRunner(small_config(1)).run();
  const ScenarioResult b = ScenarioRunner(small_config(2)).run();
  EXPECT_NE(a.good_payoff.mean(), b.good_payoff.mean());
}

TEST(Scenario, GoodPayoffSamplesMatchGoodNodeCount) {
  ScenarioConfig cfg = small_config();
  cfg.overlay.malicious_fraction = 0.25;
  const ScenarioResult r = ScenarioRunner(cfg).run();
  EXPECT_EQ(r.good_payoff_samples.size(), 15u);  // 20 - 5 malicious
  EXPECT_EQ(r.good_payoff.count(), 15u);
}

TEST(Scenario, ForwarderSetSmallerUnderUtilityRouting) {
  ScenarioConfig random_cfg = small_config(3);
  random_cfg.good_strategy = core::StrategyKind::kRandom;
  ScenarioConfig utility_cfg = small_config(3);
  utility_cfg.good_strategy = core::StrategyKind::kUtilityModelI;
  const double random_set = ScenarioRunner(random_cfg).run().forwarder_set_size.mean();
  const double utility_set = ScenarioRunner(utility_cfg).run().forwarder_set_size.mean();
  EXPECT_LT(utility_set, random_set);
}

TEST(Scenario, MoreMaliciousNodesLowerMemberPayoff) {
  // The paper's Fig. 3 metric: per-connection-set member payoff falls as
  // adversaries inflate ||pi|| (workload m and routing share both shrink).
  ScenarioConfig low = small_config(5);
  low.overlay.malicious_fraction = 0.1;
  ScenarioConfig high = small_config(5);
  high.overlay.malicious_fraction = 0.8;
  const double payoff_low = ScenarioRunner(low).run().member_payoff.mean();
  const double payoff_high = ScenarioRunner(high).run().member_payoff.mean();
  EXPECT_GT(payoff_low, payoff_high);
}

TEST(Scenario, MemberPayoffSamplesMatchAccumulator) {
  const ScenarioResult r = ScenarioRunner(small_config(11)).run();
  EXPECT_EQ(r.member_payoff_samples.size(), r.member_payoff.count());
  EXPECT_GT(r.member_payoff.count(), 0u);
}

TEST(Scenario, MemberPayoffPositiveUnderPaperContract) {
  // P_f in [50, 100] dwarfs C_p = 10 and C_t <= 1: serving a set nets a
  // strictly positive payoff (the participation incentive of Prop. 2/3).
  const ScenarioResult r = ScenarioRunner(small_config(12)).run();
  EXPECT_GT(r.member_payoff.min(), 0.0);
}

TEST(Scenario, NewEdgeFractionDecaysUnderUtilityRouting) {
  ScenarioConfig cfg = small_config(4);
  cfg.connections_per_pair = 12;
  const ScenarioResult r = ScenarioRunner(cfg).run();
  ASSERT_EQ(r.new_edge_fraction_by_conn.size(), 12u);
  // Connection 1 edges are almost all new (an edge can repeat *within* one
  // path when the walk revisits it, so slightly below 1 is legitimate).
  EXPECT_GT(r.new_edge_fraction_by_conn.front().mean(), 0.85);
  EXPECT_LT(r.new_edge_fraction_by_conn.back().mean(), 0.6);
  EXPECT_LT(r.new_edge_fraction_by_conn.back().mean(),
            r.new_edge_fraction_by_conn.front().mean());
}

TEST(Scenario, DropAttackCountsReformations) {
  ScenarioConfig cfg = small_config(6);
  cfg.overlay.malicious_fraction = 0.4;
  cfg.adversary.drop_probability = 0.5;
  const ScenarioResult r = ScenarioRunner(cfg).run();
  EXPECT_GT(r.reformations, 0u);
  EXPECT_EQ(r.connections_completed, 60u);
  EXPECT_TRUE(r.payment_conserved);
}

TEST(Scenario, HopCountTerminationBoundsPathLength) {
  ScenarioConfig cfg = small_config(8);
  cfg.termination = core::TerminationPolicy::kHopCount;
  cfg.ttl_hops = 2;
  const ScenarioResult r = ScenarioRunner(cfg).run();
  EXPECT_LE(r.avg_path_length.max(), 2.0 + 1e-9);
}

TEST(Scenario, RoutingEfficiencyDefinition) {
  const ScenarioResult r = ScenarioRunner(small_config(9)).run();
  EXPECT_NEAR(r.routing_efficiency, r.member_payoff.mean() / r.forwarder_set_size.mean(), 1e-9);
}

TEST(Scenario, MinimalOverlayStillRuns) {
  // Smallest legal world: 3 nodes, degree 1 — paths are forced and short,
  // but the full pipeline (probing, payments, settlement) must hold up.
  ScenarioConfig cfg = paper_default_config(13);
  cfg.overlay.node_count = 3;
  cfg.overlay.degree = 1;
  cfg.pair_count = 2;
  cfg.connections_per_pair = 3;
  cfg.warmup = sim::minutes(10.0);
  cfg.pair_start_window = sim::minutes(10.0);
  const ScenarioResult r = ScenarioRunner(cfg).run();
  EXPECT_EQ(r.connections_completed, 6u);
  EXPECT_TRUE(r.payment_conserved);
}

TEST(Scenario, ZipfResponderSelectionConcentrates) {
  ScenarioConfig uniform = small_config(14);
  ScenarioConfig skewed = small_config(14);
  skewed.responder_zipf = 2.0;
  // Not directly observable from results; assert the run completes and
  // conserves, and that the configs genuinely diverge in outcome.
  const ScenarioResult u = ScenarioRunner(uniform).run();
  const ScenarioResult z = ScenarioRunner(skewed).run();
  EXPECT_TRUE(u.payment_conserved);
  EXPECT_TRUE(z.payment_conserved);
  EXPECT_NE(u.member_payoff.mean(), z.member_payoff.mean());
}

TEST(Scenario, LatencyPositiveAndScalesWithPayload) {
  ScenarioConfig small_payload = small_config(16);
  ScenarioConfig big_payload = small_config(16);
  big_payload.overlay.link.payload_size = 10.0;
  const double small_lat = ScenarioRunner(small_payload).run().connection_latency.mean();
  const double big_lat = ScenarioRunner(big_payload).run().connection_latency.mean();
  EXPECT_GT(small_lat, 0.0);
  EXPECT_GT(big_lat, small_lat);
}
