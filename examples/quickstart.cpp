// Quickstart: the smallest end-to-end use of the library.
//
// Builds the paper's simulation world (overlay + churn + probing + bank),
// runs one recurring connection set between an initiator and a responder
// under Utility Model I, settles the payments, and prints what happened —
// a runnable version of the paper's Figures 1-2 walkthrough.
//
//   ./quickstart [seed]
#include <cstdlib>
#include <iostream>

#include "core/edge_quality.hpp"
#include "core/incentive.hpp"
#include "net/probing.hpp"
#include "payment/settlement.hpp"
#include "sim/simulator.hpp"

int main(int argc, char** argv) {
  using namespace p2panon;
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 42;
  sim::rng::Stream root(seed);

  // --- 1. A 40-node overlay with the paper's churn model (Pareto sessions,
  // median 60 min) and degree-5 neighbour sets.
  sim::Simulator simulator;
  net::OverlayConfig ocfg;
  ocfg.node_count = 40;
  ocfg.degree = 5;
  net::Overlay overlay(ocfg, simulator, root.child("overlay"));

  // --- 2. Availability estimation by active probing (paper §2.3) and
  // empty per-node connection histories.
  net::ProbingEstimator probing(overlay, net::ProbingConfig{}, root.child("probing"));
  core::HistoryStore history(overlay.size());
  core::EdgeQualityEvaluator quality(probing, history, core::QualityWeights{});

  // --- 3. A bank where every peer holds an account and registers the MAC
  // key it will use on forwarding receipts.
  payment::Bank bank(root.child("bank"));
  payment::SettlementEngine engine(bank);
  auto keys = root.child("keys");
  for (net::NodeId id = 0; id < overlay.size(); ++id) {
    bank.open_account(id, payment::from_credits(100000.0), keys.next_u64());
  }

  // --- 4. Let the overlay churn for an hour so probing has observations.
  overlay.start();
  simulator.run_until(sim::minutes(60.0));
  std::cout << "overlay warmed up: " << overlay.online_nodes().size() << "/40 nodes online, "
            << probing.probes_performed() << " probes performed\n";

  // --- 5. A recurring connection set: initiator 0 -> responder 39, 20
  // connections, contract P_f = 75, tau = 2 (so P_r = 150).
  const net::NodeId initiator = 0, responder = 39;
  core::Contract contract;
  contract.forwarding_benefit = 75.0;
  contract.tau = 2.0;
  core::ConnectionSetSession session(/*pair=*/0, initiator, responder, contract);

  core::UtilityModelIRouting good_strategy;
  core::StrategyAssignment strategies(overlay, good_strategy);
  core::PathBuilder builder(overlay, quality);
  core::PayoffLedger ledger(overlay.size());

  auto stream = root.child("session");
  for (std::uint32_t k = 1; k <= 20; ++k) {
    simulator.run_until(simulator.now() + sim::minutes(5.0));
    overlay.force_online(initiator);
    overlay.force_online(responder);
    const core::BuiltPath& path =
        session.run_connection(builder, history, strategies, ledger, overlay, stream);
    std::cout << "connection " << k << ": path";
    for (net::NodeId n : path.nodes) std::cout << ' ' << n;
    std::cout << "  (||pi|| so far: " << session.forwarder_set().size() << ")\n";
  }

  // --- 6. Settle: the initiator funds an escrow with blind coins, opens a
  // settlement with its validated path records, forwarders claim with MAC'd
  // receipts, the bank pays m*P_f + P_r/||pi|| each.
  auto settle_stream = root.child("settle");
  const core::SettleOutcome out = session.settle(bank, engine, ledger, settle_stream);

  std::cout << "\nsettled: ||pi|| = " << out.forwarder_set_size
            << ", avg path length L = " << session.average_path_length()
            << ", path quality Q(pi) = L/||pi|| = " << session.path_quality() << '\n'
            << "initiator paid " << out.initiator_spend << " credits; "
            << out.report.accepted_claims << " forwarding instances claimed, "
            << out.report.refunded << " milli-credits refunded\n";

  std::cout << "\nper-forwarder payoffs (benefit - cost):\n";
  for (net::NodeId id : session.forwarder_set()) {  // ascending node order
    std::cout << "  node " << id << ": " << ledger.at(id).payoff() << " credits over "
              << ledger.at(id).forwarding_instances << " instances\n";
  }
  return 0;
}
