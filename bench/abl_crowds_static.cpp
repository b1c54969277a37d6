// Ablation: static-path Crowds sessions vs per-connection routing.
//
// The paper's target system class forms a path once and re-forms it on
// churn (Crowds). This bench measures, under the paper's churn model, how
// the three designs compare on the anonymity-relevant statistics:
//   A. static Crowds, random path formation      (classic baseline)
//   B. static Crowds, utility-model-I formation  (incentive at reformation)
//   C. per-connection utility-model-I routing    (the paper's mechanism)
#include "common.hpp"

#include "core/crowds.hpp"
#include "core/edge_quality.hpp"
#include "net/probing.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace p2panon;

struct Row {
  double set_size = 0.0;
  double reformations = 0.0;
  double quality = 0.0;
};

Row run_static(core::StrategyKind formation, double session_median_min, std::uint64_t seed) {
  sim::rng::Stream root(seed);
  sim::Simulator simulator;
  net::OverlayConfig cfg;
  cfg.node_count = 40;
  cfg.degree = 5;
  cfg.churn.session_median = sim::minutes(session_median_min);
  // The bounded-Pareto median cannot exceed sqrt(min*max).
  cfg.churn.session_max = std::max(
      sim::hours(24.0),
      8.0 * cfg.churn.session_median * cfg.churn.session_median / cfg.churn.session_min);
  net::Overlay overlay(cfg, simulator, root.child("overlay"));
  net::ProbingEstimator probing(overlay, net::ProbingConfig{}, root.child("probing"));
  core::HistoryStore history(overlay.size());
  core::EdgeQualityEvaluator quality(probing, history, core::QualityWeights{});
  core::PathBuilder builder(overlay, quality);
  core::PayoffLedger ledger(overlay.size());
  const auto strategy = core::make_strategy(formation);
  core::StrategyAssignment assign(overlay, *strategy);

  overlay.start();
  simulator.run_until(sim::minutes(60.0));

  Row row;
  auto pair_stream = root.child("pairs");
  auto run_stream = root.child("run");
  const std::size_t pairs = 20;
  for (net::PairId pid = 0; pid < pairs; ++pid) {
    const auto initiator = static_cast<net::NodeId>(pair_stream.below(overlay.size()));
    net::NodeId responder = initiator;
    while (responder == initiator) {
      responder = static_cast<net::NodeId>(pair_stream.below(overlay.size()));
    }
    core::CrowdsSession session(pid, initiator, responder, core::Contract{});
    auto stream = run_stream.child("pair", pid);
    for (std::uint32_t k = 0; k < 20; ++k) {
      simulator.run_until(simulator.now() + sim::minutes(1.0));
      overlay.force_online(initiator);
      overlay.force_online(responder);
      session.run_connection(builder, history, assign, ledger, overlay, stream);
    }
    row.set_size += static_cast<double>(session.set().forwarder_set().size()) / pairs;
    row.reformations += static_cast<double>(session.reformations()) / pairs;
    row.quality += session.set().path_quality() / pairs;
  }
  return row;
}

}  // namespace

int main() {
  using namespace p2panon;
  using namespace p2panon::bench;

  const std::size_t replicates = replicate_count();
  harness::print_banner(std::cout, "Ablation: static Crowds sessions",
                        "Static-path sessions (re-form only on churn) vs per-connection "
                        "routing; 20 pairs x 20 connections, f = 0 (" +
                            std::to_string(replicates) + " replicates)");

  harness::TextTable table({"median session (min)", "design", "avg ||pi||",
                            "avg reformations", "avg Q(pi)"});
  for (double median : {20.0, 60.0, 180.0}) {
    for (auto formation : {core::StrategyKind::kRandom, core::StrategyKind::kUtilityModelI}) {
      metrics::Accumulator set, ref, q;
      for (std::size_t r = 0; r < replicates; ++r) {
        const Row row = run_static(formation, median, base_seed() + r);
        set.add(row.set_size);
        ref.add(row.reformations);
        q.add(row.quality);
      }
      const std::string design = std::string("static + ") +
                                 std::string(core::strategy_name(formation)) + " formation";
      table.add_row({harness::fmt(median, 0), design, harness::fmt(set.mean()),
                     harness::fmt(ref.mean()), harness::fmt(q.mean(), 3)});
    }
    // Per-connection utility routing at the same churn level, via the full
    // scenario harness (20 pairs x 20 connections for comparability).
    harness::ScenarioConfig cfg = paper_config(0.0, core::StrategyKind::kUtilityModelI);
    cfg.pair_count = 20;
    cfg.overlay.churn.session_median = sim::minutes(median);
    cfg.overlay.churn.session_max =
        std::max(sim::hours(24.0), 8.0 * cfg.overlay.churn.session_median *
                                       cfg.overlay.churn.session_median /
                                       cfg.overlay.churn.session_min);
    const auto r = run(cfg);
    table.add_row({harness::fmt(median, 0), "per-connection utility-model-1",
                   harness::fmt(r.forwarder_set_size.mean()), "n/a",
                   harness::fmt(r.path_quality.mean(), 3)});
  }
  emit(table, "abl_crowds_static");
  std::cout << "\nReading: static sessions minimise ||pi|| while the path survives, but "
               "churn forces reformations that grow Q; incentive-aligned formation "
               "re-forms onto the SAME forwarders (history + availability), keeping "
               "Q near the static optimum — the paper's §2.1 conditions (1) and (2) "
               "in one table.\n";
  return 0;
}
