// Bitwise equivalence against pre-change pinned dumps.
//
// The engine rebuild (slot-map EventQueue, EventCallback SBO, incremental
// probing totals, launch-context/settlement refactors) claims to be a pure
// performance change: not one bit of any metric may move. The constants
// below are the exact IEEE-754 bit patterns produced by the commit *before*
// the rebuild (generated by running these scenarios at that HEAD); the test
// re-runs the scenarios on the current engine — serially and across
// thread-pool sizes — and compares bit for bit. The paper pins were taken
// again, with unbounded history, when bounded history was deleted: the
// commit before that deletion printed them for this config.
//
// If this test fails after an intentional semantic change, regenerate the
// pins from the last commit whose behaviour you mean to preserve. A failure
// after a "pure refactor" means the refactor was not pure.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "harness/replicate.hpp"
#include "parallel/thread_pool.hpp"

using namespace p2panon;
using namespace p2panon::harness;

namespace {

struct PinnedDouble {
  const char* name;
  std::uint64_t bits;
};
struct PinnedCount {
  const char* name;
  std::uint64_t value;
};

// Paper-default shape with the decision stack fully engaged (Model II,
// depth 3, adversaries).
ScenarioConfig pinned_paper_config() {
  ScenarioConfig cfg = paper_default_config(97);
  cfg.good_strategy = core::StrategyKind::kUtilityModelII;
  cfg.lookahead_depth = 3;
  cfg.overlay.malicious_fraction = 0.1;
  cfg.adversary.drop_probability = 0.2;
  return cfg;
}

// Fault mode: ack timers armed and cancelled per hop per leg, keepalives,
// crashes — the cancel-heavy workload the slot map exists for.
ScenarioConfig pinned_fault_config() {
  ScenarioConfig cfg = paper_default_config(131);
  cfg.overlay.node_count = 24;
  cfg.overlay.degree = 4;
  cfg.pair_count = 10;
  cfg.connections_per_pair = 4;
  cfg.warmup = sim::minutes(30.0);
  cfg.pair_start_window = sim::minutes(45.0);
  cfg.fault.link_loss = 0.05;
  cfg.fault.delay_jitter = 0.3;
  cfg.fault.crash_rate_per_hour = 5.0;
  cfg.fault.crash_recovery_mean = sim::minutes(10.0);
  cfg.fault.probe_false_negative = 0.1;
  cfg.async_setup.attempt_deadline = sim::minutes(3.0);
  cfg.data_phase.duration = 90.0;
  cfg.data_phase.keepalive_interval = 10.0;
  return cfg;
}

// SPNE routing on the paper-default shape: every good node plays the
// lazy backward-induction solver (three stages) against adversaries, so the
// equilibrium memo carries every hop decision.
ScenarioConfig pinned_spne_config() {
  ScenarioConfig cfg = paper_default_config(61);
  cfg.good_strategy = core::StrategyKind::kSpne;
  cfg.lookahead_depth = 3;
  cfg.overlay.malicious_fraction = 0.1;
  cfg.adversary.drop_probability = 0.2;
  return cfg;
}

constexpr PinnedDouble kPaperDoubles[] = {
    {"good_payoff_mean", 0x40CA5DE47FCDB61FULL},       // 13499.785150255133
    {"member_payoff_mean", 0x407BBCB7423A3CAFULL},     // 443.79474089382978
    {"forwarder_set_mean", 0x40278CCCCCCCCCCDULL},     // 11.775
    {"path_length_mean", 0x400CED0E56041894ULL},       // 3.6157500000000002
    {"path_quality_mean", 0x3FD59EEB8D4143BCULL},      // 0.33782471460750307
    {"initiator_utility_mean", 0x404A41941084B81CULL}, // 52.512331070713316
    {"initiator_spend_mean", 0x40B5D2B1E3FBBD7CULL},   // 5586.6948850000008
    {"latency_mean", 0x3FF4EA25721A6CAAULL},           // 1.3071646172673277
    {"efficiency_mean", 0x4042E88B0347E035ULL},        // 37.816742334457025
    {"delivery_ratio_mean", 0x3FF0000000000000ULL},    // 1
    {"setup_time_mean", 0x0000000000000000ULL},        // 0
    {"time_to_detect_mean", 0x0000000000000000ULL},    // 0
};
constexpr PinnedCount kPaperCounts[] = {
    {"total_reformations", 484ULL},
    {"total_churn_events", 375ULL},
    {"total_connections_completed", 4000ULL},
    {"total_connections_failed", 0ULL},
    {"total_setup_attempts", 0ULL},
    {"total_ack_timeouts", 0ULL},
    {"total_crashes", 0ULL},
    {"total_messages_dropped", 0ULL},
    {"total_keepalives_sent", 0ULL},
    {"total_keepalives_delivered", 0ULL},
};

constexpr PinnedDouble kFaultDoubles[] = {
    {"good_payoff_mean", 0x40828F344C2D3533ULL},       // 593.90053592032052
    {"member_payoff_mean", 0x40723ED8C5873BDEULL},     // 291.9279227526257
    {"forwarder_set_mean", 0x4013555555555555ULL},     // 4.833333333333333
    {"path_length_mean", 0x3FFFC3C20D95366BULL},       // 1.9852924852924854
    {"path_quality_mean", 0x3FE0AB41D77485F0ULL},      // 0.5209054191693081
    {"initiator_utility_mean", 0x40B94B87CDAEF95EULL}, // 6475.5304822310263
    {"initiator_spend_mean", 0x409698B851EB851EULL},   // 1446.1799999999998
    {"latency_mean", 0x3FE943C77A31E1BDULL},           // 0.78952382913762842
    {"efficiency_mean", 0x405021759159448BULL},        // 64.522800767112287
    {"delivery_ratio_mean", 0x3FE6A904CEF0B9CFULL},    // 0.70813217561754438
    {"setup_time_mean", 0x404B06DD51674A4CULL},        // 54.053629088816336
    {"time_to_detect_mean", 0x4025DFB81BF80A00ULL},    // 10.936951517132002
};
constexpr PinnedCount kFaultCounts[] = {
    {"total_reformations", 467ULL},
    {"total_churn_events", 755ULL},
    {"total_connections_completed", 114ULL},
    {"total_connections_failed", 5ULL},
    {"total_setup_attempts", 1043ULL},
    {"total_ack_timeouts", 295ULL},
    {"total_crashes", 311ULL},
    {"total_messages_dropped", 426ULL},
    {"total_keepalives_sent", 624ULL},
    {"total_keepalives_delivered", 443ULL},
};

constexpr PinnedDouble kSpneDoubles[] = {
    {"good_payoff_mean", 0x40CED4796A08D71DULL},       // 15784.948548417125
    {"member_payoff_mean", 0x408057E6840C421FULL},     // 522.98755654885088
    {"forwarder_set_mean", 0x40273D70A3D70A3CULL},     // 11.619999999999997
    {"path_length_mean", 0x400F5EB851EB8520ULL},       // 3.9212500000000006
    {"path_quality_mean", 0x3FD993CF55EEA504ULL},      // 0.39964660064522683
    {"initiator_utility_mean", 0xC07336DA5B4C1445ULL}, // -307.42830972402982
    {"initiator_spend_mean", 0x40B777B1C486AD2DULL},   // 6007.6944049999993
    {"latency_mean", 0x3FF6A580BA71E508ULL},           // 1.4154059679988809
    {"efficiency_mean", 0x4047335967F43B78ULL},        // 46.401165956739476
    {"delivery_ratio_mean", 0x3FF0000000000000ULL},    // 1
    {"setup_time_mean", 0x0000000000000000ULL},        // 0
    {"time_to_detect_mean", 0x0000000000000000ULL},    // 0
};
constexpr PinnedCount kSpneCounts[] = {
    {"total_reformations", 235ULL},
    {"total_churn_events", 391ULL},
    {"total_connections_completed", 4000ULL},
    {"total_connections_failed", 0ULL},
    {"total_setup_attempts", 0ULL},
    {"total_ack_timeouts", 0ULL},
    {"total_crashes", 0ULL},
    {"total_messages_dropped", 0ULL},
    {"total_keepalives_sent", 0ULL},
    {"total_keepalives_delivered", 0ULL},
};

void expect_matches_pins(const ReplicatedResult& r,
                         const PinnedDouble (&doubles)[12],
                         const PinnedCount (&counts)[10]) {
  const double actual[12] = {
      r.good_payoff.mean(),       r.member_payoff.mean(),
      r.forwarder_set_size.mean(), r.avg_path_length.mean(),
      r.path_quality.mean(),      r.initiator_utility.mean(),
      r.initiator_spend.mean(),   r.connection_latency.mean(),
      r.routing_efficiency.mean(), r.delivery_ratio.mean(),
      r.setup_time.mean(),        r.time_to_detect.mean(),
  };
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(actual[i]), doubles[i].bits)
        << doubles[i].name << " diverged from the pre-change pin: " << actual[i];
  }
  const std::uint64_t totals[10] = {
      r.total_reformations,          r.total_churn_events,
      r.total_connections_completed, r.total_connections_failed,
      r.total_setup_attempts,        r.total_ack_timeouts,
      r.total_crashes,               r.total_messages_dropped,
      r.total_keepalives_sent,       r.total_keepalives_delivered,
  };
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(totals[i], counts[i].value)
        << counts[i].name << " diverged from the pre-change pin";
  }
}

}  // namespace

TEST(EngineEquivalence, PaperDefaultMatchesPreChangePins) {
  expect_matches_pins(run_replicated(pinned_paper_config(), 2, nullptr),
                      kPaperDoubles, kPaperCounts);
}

TEST(EngineEquivalence, FaultModeMatchesPreChangePins) {
  expect_matches_pins(run_replicated(pinned_fault_config(), 3, nullptr),
                      kFaultDoubles, kFaultCounts);
}

TEST(EngineEquivalence, SpneMatchesPrePins) {
  expect_matches_pins(run_replicated(pinned_spne_config(), 2, nullptr),
                      kSpneDoubles, kSpneCounts);
}

TEST(EngineEquivalence, PinsHoldAcrossThreadPoolSizes) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE("pool size " + std::to_string(threads));
    parallel::ThreadPool pool(threads);
    expect_matches_pins(run_replicated(pinned_paper_config(), 2, &pool),
                        kPaperDoubles, kPaperCounts);
    expect_matches_pins(run_replicated(pinned_fault_config(), 3, &pool),
                        kFaultDoubles, kFaultCounts);
  }
}
