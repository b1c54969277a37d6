// Attack bench: availability attack (paper §5 threat (1)).
//
// Malicious nodes keep their sessions alive permanently so that availability-
// driven routing re-forms paths through them. We sweep the availability
// weight w_a and report the fraction of forwarding instances captured by
// malicious nodes — the attack surface — under Utility Model I.
#include "common.hpp"

#include "core/edge_quality.hpp"
#include "core/incentive.hpp"
#include "net/probing.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace p2panon;

double malicious_capture_fraction(double w_a, bool always_online, std::uint64_t seed) {
  sim::rng::Stream root(seed);
  sim::Simulator simulator;

  net::OverlayConfig ocfg;
  ocfg.node_count = 40;
  ocfg.degree = 5;
  ocfg.malicious_fraction = 0.2;
  ocfg.malicious_always_online = always_online;
  net::Overlay overlay(ocfg, simulator, root.child("overlay"));
  net::ProbingEstimator probing(overlay, net::ProbingConfig{}, root.child("probing"));
  core::HistoryStore history(overlay.size());
  core::QualityWeights weights{1.0 - w_a, w_a};
  core::EdgeQualityEvaluator quality(probing, history, weights);
  core::PathBuilder builder(overlay, quality);
  core::PayoffLedger ledger(overlay.size());

  core::UtilityModelIRouting good_strategy;
  core::StrategyAssignment strategies(overlay, good_strategy);

  overlay.start();
  simulator.run_until(sim::hours(2.0));  // long warmup lets attackers stand out

  auto pair_stream = root.child("pairs");
  auto run_stream = root.child("run");
  std::uint64_t malicious_instances = 0, total_instances = 0;
  for (net::PairId pid = 0; pid < 30; ++pid) {
    const auto initiator = static_cast<net::NodeId>(pair_stream.below(overlay.size()));
    net::NodeId responder = initiator;
    while (responder == initiator) {
      responder = static_cast<net::NodeId>(pair_stream.below(overlay.size()));
    }
    core::ConnectionSetSession session(pid, initiator, responder, core::Contract{});
    auto stream = run_stream.child("pair", pid);
    for (std::uint32_t k = 0; k < 20; ++k) {
      simulator.run_until(simulator.now() + 30.0);
      overlay.force_online(initiator);
      overlay.force_online(responder);
      const core::BuiltPath& path =
          session.run_connection(builder, history, strategies, ledger, overlay, stream);
      for (std::size_t i = 1; i + 1 < path.nodes.size(); ++i) {
        ++total_instances;
        if (overlay.state().is_malicious(path.nodes[i])) ++malicious_instances;
      }
    }
  }
  return total_instances > 0
             ? static_cast<double>(malicious_instances) / static_cast<double>(total_instances)
             : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace p2panon;
  using namespace p2panon::bench;

  const harness::AdaptiveConfig adaptive = parse_sweep_options(argc, argv, 0.02);
  const std::size_t replicates = replicate_count();
  harness::print_banner(std::cout, "Attack: availability",
                        "Fraction of forwarding instances captured by malicious nodes "
                        "(f = 0.2) vs availability weight w_a, with and without the "
                        "always-online availability attack (" +
                            std::to_string(replicates) + " replicate cap)");

  using Kind = harness::MetricSpec::Kind;
  harness::AdaptiveRunner runner(adaptive, {
                                               {"capture_honest", Kind::kMean, 0.0, false, 0.0},
                                               {"capture_attacked", Kind::kMean, 0.0, false, 0.0},
                                           });

  harness::TextTable table({"w_a", "capture, honest uptime", "capture, availability attack",
                            "attack gain", "reps"});
  std::ostringstream cells_json;
  bool first_cell = true;
  for (double w_a : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    std::uint64_t fp = harness::fnv1a_bytes(harness::fnv1a_init(), "attack_availability");
    fp = harness::fnv1a_mix(fp, base_seed());
    fp = harness::fnv1a_double(fp, w_a);
    const std::string key = "wa" + harness::fmt(w_a, 2);
    const harness::AdaptiveCellResult cell =
        runner.run_cell(key, fp, replicates, [&](std::size_t r) {
          return std::vector<double>{malicious_capture_fraction(w_a, false, base_seed() + r),
                                     malicious_capture_fraction(w_a, true, base_seed() + r)};
        });
    table.add_row({harness::fmt(w_a, 2), harness::fmt(cell.metrics[0].mean(), 3),
                   harness::fmt(cell.metrics[1].mean(), 3),
                   harness::fmt(cell.metrics[1].mean() - cell.metrics[0].mean(), 3),
                   std::to_string(cell.outcome.replicates_used) + "/" +
                       std::to_string(cell.outcome.replicates_planned)});
    cells_json << (first_cell ? "" : ",") << "\n    {\"cell\": \"" << key
               << "\", \"attack_gain\": "
               << cell.metrics[1].mean() - cell.metrics[0].mean() << ", "
               << adaptive_json_fields(cell.outcome) << "}";
    first_cell = false;
  }
  emit(table, "attack_availability");
  std::ostringstream json;
  json << "{\n  \"adaptive\": " << (adaptive.adaptive ? "true" : "false")
       << ",\n  \"eps\": " << adaptive.eps << ",\n  \"cells\": [" << cells_json.str()
       << "\n  ]\n}\n";
  write_bench_json("BENCH_attack_availability.json", json.str());
  std::cout << "\nReading: the capture gain from staying always-online grows with the "
               "availability weight w_a — quantifying the paper's §5 availability "
               "attack and the w_s/w_a trade-off that mitigates it.\n";
  return 0;
}
