// Ablation: asynchronous (event-driven) connection establishment.
//
// Contract propagation and reverse confirmation take real time over links;
// a forwarder that churns out mid-flight kills the attempt and the path
// re-forms. This bench measures formation attempts and setup latency under
// churn for random vs utility routing: availability-aware selection should
// pick forwarders that survive the setup window, needing fewer attempts —
// the *mechanistic* version of the paper's reformation argument.
#include "common.hpp"

#include "core/async_path.hpp"
#include "core/edge_quality.hpp"
#include "net/probing.hpp"
#include "sim/simulator.hpp"
#include "transport/sim_transport.hpp"

namespace {

using namespace p2panon;

struct Outcome {
  double attempts = 0.0;   ///< mean formation attempts per connection
  double setup = 0.0;      ///< mean setup time (s), established only
  double failed = 0.0;     ///< connections that exhausted their attempts
};

Outcome run_async(core::StrategyKind kind, double session_median_min, std::uint64_t seed) {
  sim::rng::Stream root(seed);
  sim::Simulator simulator;
  net::OverlayConfig cfg;
  cfg.node_count = 40;
  cfg.degree = 5;
  cfg.churn.session_min = sim::minutes(1.0);
  cfg.churn.session_median = sim::minutes(session_median_min);
  // Median must stay below sqrt(min*max): scale the upper bound with it.
  cfg.churn.session_max =
      std::max(sim::hours(4.0), 8.0 * cfg.churn.session_median * cfg.churn.session_median /
                                    cfg.churn.session_min);
  cfg.churn.offline_gap_mean = sim::minutes(5.0);
  cfg.churn.departure_probability = 0.0;
  cfg.link.propagation_delay = 15.0;  // slow setup: spans churn events
  net::Overlay overlay(cfg, simulator, root.child("overlay"));
  net::ProbingEstimator probing(overlay, net::ProbingConfig{sim::minutes(2.0)},
                                root.child("probing"));
  core::HistoryStore history(overlay.size());
  core::EdgeQualityEvaluator quality(probing, history, core::QualityWeights{});
  core::PathBuilder builder(overlay, quality);
  transport::SimTransport transport(simulator, overlay);
  core::AsyncConnectionRunner runner(simulator, overlay, builder, transport);
  const auto strategy = core::make_strategy(kind);
  core::StrategyAssignment assign(overlay, *strategy);

  overlay.start();
  simulator.run_until(sim::minutes(45.0));

  Outcome out;
  metrics::Accumulator attempts, setup;
  std::size_t failed = 0;
  const std::uint32_t connections = 40;
  for (std::uint32_t c = 1; c <= connections; ++c) {
    overlay.force_online(0);
    overlay.force_online(39);
    bool done = false;
    core::AsyncResult result;
    runner.establish(1, c, 0, 39, core::Contract{}, assign, root.child("est", c),
                     [&](const core::AsyncResult& r) {
                       result = r;
                       done = true;
                     });
    simulator.run_until(simulator.now() + sim::minutes(45.0));
    if (!done) {
      ++failed;  // ran out of simulated patience
      continue;
    }
    attempts.add(static_cast<double>(result.attempts));
    if (result.established) {
      setup.add(result.setup_time);
      history.record_path(1, result.path.nodes);  // feed selectivity
    } else {
      ++failed;
    }
  }
  out.attempts = attempts.mean();
  out.setup = setup.count() > 0 ? setup.mean() : 0.0;
  out.failed = static_cast<double>(failed);
  return out;
}

}  // namespace

int main() {
  using namespace p2panon;
  using namespace p2panon::bench;

  const std::size_t replicates = replicate_count();
  harness::print_banner(std::cout, "Ablation: asynchronous formation",
                        "Event-driven setup (15 s/hop) under churn: formation attempts and "
                        "setup latency, 40 connections of one pair (" +
                            std::to_string(replicates) + " replicates)");

  harness::TextTable table({"median session (min)", "strategy", "avg attempts",
                            "avg setup (s)", "failed (of 40)"});
  for (double median : {5.0, 15.0, 60.0}) {
    for (auto kind : {core::StrategyKind::kRandom, core::StrategyKind::kUtilityModelI}) {
      metrics::Accumulator attempts, setup, failed;
      for (std::size_t r = 0; r < replicates; ++r) {
        const Outcome out = run_async(kind, median, base_seed() + r);
        attempts.add(out.attempts);
        setup.add(out.setup);
        failed.add(out.failed);
      }
      table.add_row({harness::fmt(median, 0), std::string(core::strategy_name(kind)),
                     harness::fmt(attempts.mean()), harness::fmt(setup.mean(), 1),
                     harness::fmt(failed.mean(), 1)});
    }
  }
  emit(table, "abl_async_formation");
  std::cout << "\nReading: the shorter the sessions, the more attempts a setup needs; "
               "availability-aware utility routing selects forwarders likely to "
               "survive the setup window, cutting attempts and setup latency vs "
               "random selection — the event-level mechanism behind the paper's "
               "reformation-frequency claims.\n";
  return 0;
}
