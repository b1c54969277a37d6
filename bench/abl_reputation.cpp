// Ablation: reputation-based routing vs the incentive mechanism under a
// collusion attack (the paper's §4 argument, measured).
//
// A malicious coalition (f = 0.2 of the overlay) files fake mutual success
// reports each round. Under global-scope reputation routing the coalition's
// scores saturate and honest nodes route into it; the incentive mechanism's
// edge quality uses only *local* observations (own history + own probes),
// so the same coalition gains nothing beyond its natural share.
#include "common.hpp"

#include "core/edge_quality.hpp"
#include "core/incentive.hpp"
#include "core/reputation.hpp"
#include "net/probing.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace p2panon;

/// Fraction of forwarding instances captured by the malicious coalition.
double capture_share(bool use_reputation, bool collude, std::uint64_t seed) {
  sim::rng::Stream root(seed);
  sim::Simulator simulator;
  net::OverlayConfig cfg;
  cfg.node_count = 40;
  cfg.degree = 5;
  cfg.malicious_fraction = 0.2;
  net::Overlay overlay(cfg, simulator, root.child("overlay"));
  net::ProbingEstimator probing(overlay, net::ProbingConfig{}, root.child("probing"));
  core::HistoryStore history(overlay.size());
  core::EdgeQualityEvaluator quality(probing, history, core::QualityWeights{});
  core::PathBuilder builder(overlay, quality);
  core::PayoffLedger ledger(overlay.size());

  core::ReputationSystem reputation(overlay.size(), core::ReputationConfig{});
  core::ReputationRouting reputation_routing(reputation);
  core::UtilityModelIRouting utility_routing;
  const core::RoutingStrategy& good =
      use_reputation ? static_cast<const core::RoutingStrategy&>(reputation_routing)
                     : static_cast<const core::RoutingStrategy&>(utility_routing);
  core::StrategyAssignment assign(overlay, good);

  const auto coalition = overlay.malicious_nodes();

  overlay.start();
  simulator.run_until(sim::minutes(60.0));

  auto pair_stream = root.child("pairs");
  auto run_stream = root.child("run");
  std::uint64_t captured = 0, total = 0;
  for (net::PairId pid = 0; pid < 30; ++pid) {
    const auto initiator = static_cast<net::NodeId>(pair_stream.below(overlay.size()));
    net::NodeId responder = initiator;
    while (responder == initiator) {
      responder = static_cast<net::NodeId>(pair_stream.below(overlay.size()));
    }
    core::ConnectionSetSession session(pid, initiator, responder, core::Contract{});
    auto stream = run_stream.child("pair", pid);
    for (std::uint32_t k = 0; k < 20; ++k) {
      simulator.run_until(simulator.now() + sim::minutes(1.0));
      if (collude) reputation.apply_collusion(coalition, 1);
      overlay.force_online(initiator);
      overlay.force_online(responder);
      const core::BuiltPath& p =
          session.run_connection(builder, history, assign, ledger, overlay, stream);
      reputation.observe_path(p.nodes);  // honest feedback accumulates too
      for (std::size_t i = 1; i + 1 < p.nodes.size(); ++i) {
        ++total;
        if (overlay.state().is_malicious(p.nodes[i])) ++captured;
      }
    }
  }
  return total > 0 ? static_cast<double>(captured) / static_cast<double>(total) : 0.0;
}

}  // namespace

int main() {
  using namespace p2panon;
  using namespace p2panon::bench;

  const std::size_t replicates = replicate_count();
  harness::print_banner(std::cout, "Ablation: reputation vs incentive",
                        "Forwarding share captured by a colluding coalition (f = 0.2) under "
                        "global reputation routing vs the incentive mechanism (" +
                            std::to_string(replicates) + " replicates)");

  harness::TextTable table({"routing", "collusion", "coalition capture share"});
  struct Case {
    const char* routing;
    bool use_reputation;
    bool collude;
  };
  const Case cases[] = {
      {"reputation (global)", true, false},
      {"reputation (global)", true, true},
      {"incentive (utility model I)", false, false},
      {"incentive (utility model I)", false, true},
  };
  for (const Case& c : cases) {
    metrics::Accumulator share;
    for (std::size_t r = 0; r < replicates; ++r) {
      share.add(capture_share(c.use_reputation, c.collude, base_seed() + r));
    }
    table.add_row({c.routing, c.collude ? "yes" : "no", harness::fmt(share.mean(), 3)});
  }
  emit(table, "abl_reputation");
  std::cout << "\nReading: collusion lets the coalition dominate path selection under "
               "reputation routing, while the incentive mechanism is unaffected — "
               "collusion cannot forge local probes or the initiator-validated "
               "history behind edge quality (paper §4).\n";
  return 0;
}
