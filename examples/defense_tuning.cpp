// Defense-tuning example: dialling the system parameters against the three
// §5 attacks at once.
//
// Shows how an operator would pick (w_s : w_a) for a deployment facing
// availability attackers, droppers, and cid-linking insiders simultaneously
// — and what the dial costs in forwarder-set size and payments.
//
//   ./defense_tuning [seed]
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "attack/traffic_analysis.hpp"
#include "core/edge_quality.hpp"
#include "core/incentive.hpp"
#include "net/probing.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace p2panon;

struct Report {
  double set_size = 0.0;
  double malicious_capture = 0.0;
  double largest_profile = 0.0;
  double reformations = 0.0;
};

Report evaluate(double w_availability, std::uint64_t seed) {
  sim::rng::Stream root(seed);
  sim::Simulator simulator;
  net::OverlayConfig cfg;
  cfg.node_count = 40;
  cfg.degree = 5;
  cfg.malicious_fraction = 0.2;
  cfg.malicious_always_online = true;  // availability attackers
  net::Overlay overlay(cfg, simulator, root.child("overlay"));
  net::ProbingEstimator probing(overlay, net::ProbingConfig{}, root.child("probing"));
  core::HistoryStore history(overlay.size());
  core::QualityWeights weights{1.0 - w_availability, w_availability};
  core::EdgeQualityEvaluator quality(probing, history, weights);
  core::PathBuilder builder(overlay, quality);
  core::PayoffLedger ledger(overlay.size());
  core::UtilityModelIRouting strategy;
  core::StrategyAssignment assign(overlay, strategy);

  std::vector<bool> compromised(overlay.size(), false);
  for (net::NodeId id : overlay.malicious_nodes()) compromised[id] = true;
  attack::TrafficAnalysis analysis(compromised);

  core::AdversaryModel adversary;
  adversary.drop_probability = 0.15;  // droppers force reformations

  overlay.start();
  simulator.run_until(sim::hours(1.0));

  Report rep;
  std::uint64_t captured = 0, total = 0, reformations = 0;
  auto pair_stream = root.child("pairs");
  auto run_stream = root.child("run");
  const std::size_t pairs = 15;
  for (net::PairId pid = 0; pid < pairs; ++pid) {
    const auto initiator = static_cast<net::NodeId>(pair_stream.below(overlay.size()));
    net::NodeId responder = initiator;
    while (responder == initiator) {
      responder = static_cast<net::NodeId>(pair_stream.below(overlay.size()));
    }
    core::ConnectionSetSession session(pid, initiator, responder, core::Contract{});
    auto stream = run_stream.child("pair", pid);
    for (std::uint32_t k = 1; k <= 20; ++k) {
      simulator.run_until(simulator.now() + sim::minutes(2.0));
      overlay.force_online(initiator);
      overlay.force_online(responder);
      const core::BuiltPath& p = session.run_connection(builder, history, assign, ledger,
                                                        overlay, stream, adversary);
      analysis.observe_path(pid, p.nodes);
      for (std::size_t i = 1; i + 1 < p.nodes.size(); ++i) {
        ++total;
        if (overlay.state().is_malicious(p.nodes[i])) ++captured;
      }
    }
    rep.set_size += static_cast<double>(session.forwarder_set().size()) / pairs;
    reformations += session.reformations();
  }
  rep.malicious_capture = total > 0 ? static_cast<double>(captured) / total : 0.0;
  rep.largest_profile = static_cast<double>(analysis.largest_linked_profile());
  rep.reformations = static_cast<double>(reformations);
  return rep;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 11;

  std::cout << "Defense tuning under simultaneous attacks: 20% adversaries that stay\n"
               "always-online (availability attack), drop 15% of payloads, and link\n"
               "connections via cids.\n\n";

  // Availability-heavy (fast but exposed), the paper's default weights, and
  // history-heavy (resists availability attackers).
  const double w_availabilities[] = {0.75, 0.5, 0.25};

  std::cout << "w_a    ||pi||  capture  linked-profile  drop-reformations\n"
            << "-----------------------------------------------------------\n";
  for (const double w_availability : w_availabilities) {
    const Report r = evaluate(w_availability, seed);
    std::printf("%.2f   %-6.1f  %-7.3f  %-14.0f  %.0f\n", w_availability, r.set_size,
                r.malicious_capture, r.largest_profile, r.reformations);
  }

  std::cout << "\nHow to read this:\n"
               "  * capture: share of forwarding instances through adversaries. Always-\n"
               "    online attackers earn a large share at any w_a (uptime feeds both the\n"
               "    availability estimate AND their presence in history), so the\n"
               "    weights barely move it. The structural fix is keeping honest\n"
               "    availability high — incentives, not weights.\n"
               "  * linked-profile: max connections an insider ties together through\n"
               "    the set's one cid (at most the 20 connections of a set).\n"
               "  * ||pi||: the anonymity-set cost of each weighting.\n";
  return 0;
}
