#include "core/incentive.hpp"

#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "fixtures.hpp"

using namespace p2panon;
using namespace p2panon::core;
using net::NodeId;

namespace {

class IncentiveTest : public ::testing::Test {
 protected:
  void SetUp() override {
    world.warmup();
    auto key_stream = world.root.child("keys");
    for (NodeId id = 0; id < world.overlay.size(); ++id) {
      bank.open_account(id, payment::from_credits(1.0e7), key_stream.next_u64());
    }
  }

  /// Run k connections and settle; returns the session for inspection.
  std::unique_ptr<ConnectionSetSession> run_set(StrategyKind kind, std::uint32_t k,
                                                PayoffLedger& ledger, Contract contract = {}) {
    auto session = std::make_unique<ConnectionSetSession>(kPair, kInitiator, kResponder,
                                                          contract);
    const auto strategy = make_strategy(kind);
    StrategyAssignment assign(world.overlay, *strategy);
    PathBuilder builder(world.overlay, world.quality);
    auto stream = world.root.child("run");
    for (std::uint32_t j = 0; j < k; ++j) {
      session->run_connection(builder, world.history, assign, ledger, world.overlay, stream);
    }
    return session;
  }

  static constexpr net::PairId kPair = 2;
  static constexpr NodeId kInitiator = 0;
  static constexpr NodeId kResponder = 19;
  p2ptest::StableWorld world{4};
  payment::Bank bank{sim::rng::Stream(4).child("bank")};
  payment::SettlementEngine engine{bank};
};

}  // namespace

TEST_F(IncentiveTest, RunConnectionRecordsHistoryAndCosts) {
  PayoffLedger ledger(world.overlay.size());
  auto session = run_set(StrategyKind::kUtilityModelI, 1, ledger);
  ASSERT_EQ(session->connections_run(), 1u);
  const BuiltPath& p = session->paths().front();
  // Every forwarder got charged participation + transmission.
  for (std::size_t i = 1; i + 1 < p.nodes.size(); ++i) {
    const NodeLedger& l = ledger.at(p.nodes[i]);
    EXPECT_TRUE(l.participated);
    EXPECT_GT(l.cost, 0.0);
    EXPECT_GE(l.forwarding_instances, 1u);
  }
  // History recorded at each forwarder for this pair.
  if (p.forwarder_count() > 0) {
    EXPECT_GT(world.history.total_entries(), 0u);
  }
}

TEST_F(IncentiveTest, ForwarderSetGrowsMonotonically) {
  PayoffLedger ledger(world.overlay.size());
  auto session = std::make_unique<ConnectionSetSession>(kPair, kInitiator, kResponder,
                                                        Contract{});
  const auto strategy = make_strategy(StrategyKind::kRandom);
  StrategyAssignment assign(world.overlay, *strategy);
  PathBuilder builder(world.overlay, world.quality);
  auto stream = world.root.child("grow");
  std::size_t prev = 0;
  for (std::uint32_t j = 0; j < 10; ++j) {
    session->run_connection(builder, world.history, assign, ledger, world.overlay, stream);
    EXPECT_GE(session->forwarder_set().size(), prev);
    prev = session->forwarder_set().size();
  }
}

TEST_F(IncentiveTest, PathQualityDefinition) {
  PayoffLedger ledger(world.overlay.size());
  auto session = run_set(StrategyKind::kUtilityModelI, 5, ledger);
  const double L = session->average_path_length();
  const double set = static_cast<double>(session->forwarder_set().size());
  if (set > 0) {
    EXPECT_NEAR(session->path_quality(), L / set, 1e-12);
  }
}

TEST_F(IncentiveTest, FirstConnectionAllEdgesNew) {
  PayoffLedger ledger(world.overlay.size());
  auto session = run_set(StrategyKind::kUtilityModelI, 3, ledger);
  ASSERT_FALSE(session->new_edge_fractions().empty());
  // An edge can repeat within one path (revisits), so near-1 not exactly 1.
  EXPECT_GT(session->new_edge_fractions()[0], 0.75);
}

TEST_F(IncentiveTest, UtilityRoutingReducesNewEdgeFraction) {
  // Prop. 1: by late connections, utility routing reuses existing edges.
  PayoffLedger ledger(world.overlay.size());
  auto session = run_set(StrategyKind::kUtilityModelI, 15, ledger);
  const auto& f = session->new_edge_fractions();
  double late = 0;
  for (std::size_t j = 10; j < f.size(); ++j) late += f[j];
  late /= static_cast<double>(f.size() - 10);
  EXPECT_LT(late, 0.5) << "late connections should mostly reuse edges";
}

TEST_F(IncentiveTest, SettleCreditsForwardersExactly) {
  PayoffLedger ledger(world.overlay.size());
  Contract c;
  c.forwarding_benefit = 60.0;
  c.tau = 2.0;
  auto session = run_set(StrategyKind::kUtilityModelI, 4, ledger, c);

  std::size_t total_instances = 0;
  for (const BuiltPath& p : session->paths()) total_instances += p.forwarder_count();

  auto stream = world.root.child("settle");
  const SettleOutcome out = session->settle(bank, engine, ledger, stream);

  // All receipts accepted: paid == instances * P_f + P_r (all shares claimed
  // since every recorded forwarder claims).
  const payment::Amount expected =
      static_cast<payment::Amount>(total_instances) * payment::from_credits(60.0) +
      payment::from_credits(120.0);
  EXPECT_EQ(out.report.paid_out, expected);
  EXPECT_EQ(out.report.refunded, 0);
  EXPECT_EQ(out.forwarder_set_size, session->forwarder_set().size());
  EXPECT_NEAR(out.initiator_spend, payment::to_credits(expected), 1e-9);
}

TEST_F(IncentiveTest, SettlePayoffMatchesLedgerBenefits) {
  PayoffLedger ledger(world.overlay.size());
  auto session = run_set(StrategyKind::kUtilityModelI, 4, ledger);
  auto stream = world.root.child("settle2");
  const SettleOutcome out = session->settle(bank, engine, ledger, stream);

  double credited = 0;
  for (NodeId id = 0; id < world.overlay.size(); ++id) credited += ledger.at(id).benefit;
  EXPECT_NEAR(credited, payment::to_credits(out.report.paid_out), 1e-9);
}

TEST_F(IncentiveTest, SettleConservesBankMoney) {
  PayoffLedger ledger(world.overlay.size());
  auto session = run_set(StrategyKind::kUtilityModelII, 6, ledger);
  const payment::Amount before = bank.total_money() + bank.outstanding_coin_value();
  auto stream = world.root.child("settle3");
  session->settle(bank, engine, ledger, stream);
  EXPECT_EQ(bank.total_money() + bank.outstanding_coin_value(), before);
}

TEST_F(IncentiveTest, InitiatorPaysWhatForwardersReceive) {
  PayoffLedger ledger(world.overlay.size());
  auto session = run_set(StrategyKind::kUtilityModelI, 4, ledger);
  const payment::Amount init_before = bank.balance(bank.account_of(kInitiator));
  auto stream = world.root.child("settle4");
  const SettleOutcome out = session->settle(bank, engine, ledger, stream);
  const payment::Amount init_after = bank.balance(bank.account_of(kInitiator));
  // Initiator account decreased by exactly committed - 0 (refund goes to a
  // pseudonymous account, so out-of-pocket = escrow_in - refund only if the
  // refund is later swept; here we check committed total).
  EXPECT_EQ(init_before - init_after, out.report.escrow_in);
}

TEST_F(IncentiveTest, DropAttackForcesReformations) {
  p2ptest::StableWorld hostile(9, /*malicious=*/0.4);
  hostile.warmup();
  payment::Bank hbank{sim::rng::Stream(9).child("bank")};
  auto key_stream = hostile.root.child("keys");
  for (NodeId id = 0; id < hostile.overlay.size(); ++id) {
    hbank.open_account(id, payment::from_credits(1.0e7), key_stream.next_u64());
  }
  PayoffLedger ledger(hostile.overlay.size());
  ConnectionSetSession session(1, 0, 19, Contract{});
  const auto strategy = make_strategy(StrategyKind::kRandom);
  StrategyAssignment assign(hostile.overlay, *strategy);
  PathBuilder builder(hostile.overlay, hostile.quality);
  AdversaryModel adv;
  adv.drop_probability = 0.9;
  auto stream = hostile.root.child("drops");
  for (std::uint32_t j = 0; j < 20; ++j) {
    session.run_connection(builder, hostile.history, assign, ledger, hostile.overlay, stream,
                           adv);
  }
  EXPECT_GT(session.reformations(), 0u);
  EXPECT_EQ(session.connections_run(), 20u);  // all eventually delivered
}

TEST_F(IncentiveTest, PayoffLedgerGoodNodeFilters) {
  p2ptest::StableWorld mixed(11, /*malicious=*/0.5);
  PayoffLedger ledger(mixed.overlay.size());
  for (NodeId id = 0; id < mixed.overlay.size(); ++id) ledger.credit(id, 5.0);
  const auto acc = ledger.good_node_payoffs(mixed.overlay);
  EXPECT_EQ(acc.count(), mixed.overlay.good_nodes().size());
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_EQ(ledger.good_node_payoff_samples(mixed.overlay).size(), acc.count());
}

TEST_F(IncentiveTest, ReformedSetUnderOnePairSettlesOnOneEngine) {
  // A pair re-forms its connection set: a second session under the same
  // pair id settles on the same engine after the first, and its connection
  // 1 repeats the first set's connection 1 hop for hop. Each set's receipts
  // belong to its own settlement, so every honest claim of both sets is
  // accepted and both settle in full.
  PayoffLedger ledger(world.overlay.size());
  for (std::uint64_t set = 0; set < 2; ++set) {
    ConnectionSetSession session(kPair, kInitiator, kResponder, Contract{});
    BuiltPath path;
    path.nodes = {kInitiator, 3, 5, kResponder};
    session.adopt_connection(path, world.history, ledger, world.overlay);
    auto stream = world.root.child("reformed-set", set);
    const SettleOutcome out = session.settle(bank, engine, ledger, stream);
    EXPECT_EQ(out.report.accepted_claims, 2u) << "set " << set;
    EXPECT_EQ(out.report.rejected_claims, 0u) << "set " << set;
    EXPECT_EQ(out.report.payouts.size(), 2u) << "set " << set;
  }
  EXPECT_EQ(engine.settlement_count(), 2u);
  EXPECT_EQ(engine.claims_accepted(), 4u);
  EXPECT_EQ(engine.claims_rejected(), 0u);
}

TEST_F(IncentiveTest, SettleWithZeroConnectionsRefundsRoutingBenefit) {
  // A connection set that never ran: the commitment is P_r alone, nobody
  // can claim, and everything returns to the (pseudonymous) refund account.
  PayoffLedger ledger(world.overlay.size());
  ConnectionSetSession session(kPair, kInitiator, kResponder, Contract{});
  auto stream = world.root.child("settle-empty");
  const SettleOutcome out = session.settle(bank, engine, ledger, stream);
  EXPECT_EQ(out.forwarder_set_size, 0u);
  EXPECT_EQ(out.report.paid_out, 0);
  EXPECT_EQ(out.report.refunded, out.report.escrow_in);
  EXPECT_EQ(out.report.escrow_in,
            payment::from_credits(Contract{}.routing_benefit()));
}

TEST_F(IncentiveTest, DirectOnlyConnectionsSettleCleanly) {
  // Contract that everyone declines: every path is I -> R direct, so there
  // are zero forwarding instances yet k connections ran.
  PayoffLedger ledger(world.overlay.size());
  Contract c;
  c.forwarding_benefit = 0.01;  // below C_p: all good nodes decline
  auto session = run_set(StrategyKind::kUtilityModelI, 3, ledger, c);
  for (const BuiltPath& p : session->paths()) {
    EXPECT_EQ(p.forwarder_count(), 0u);
  }
  auto stream = world.root.child("settle-direct");
  const SettleOutcome out = session->settle(bank, engine, ledger, stream);
  EXPECT_EQ(out.report.paid_out, 0);
  EXPECT_EQ(out.report.refunded, out.report.escrow_in);
}

TEST_F(IncentiveTest, ChargeParticipationOnlyOnce) {
  PayoffLedger ledger(world.overlay.size());
  ledger.charge_participation(world.overlay, 3);
  const double first = ledger.at(3).cost;
  ledger.charge_participation(world.overlay, 3);
  EXPECT_DOUBLE_EQ(ledger.at(3).cost, first);
}

TEST_F(IncentiveTest, AdoptedSessionStatisticsMatchSetReference) {
  // Session statistics pin: seeded paths over a five-node forwarder pool,
  // so edges repeat across and within connections and nodes revisit, are
  // adopted one by one. After each, the session's Prop. 1 new-edge
  // fractions, its forwarder set Q and Q(pi) must equal a reference kept
  // over std::set, bit for bit; settlement then pays exactly ||Q||.
  PayoffLedger ledger(world.overlay.size());
  // A pair of its own: the engine is shared, and a second settlement of
  // the same pair would see the first one's receipts as replays.
  ConnectionSetSession session(kPair + 1, kInitiator, kResponder, Contract{});
  auto gen = world.root.child("adopt-stats");

  std::set<std::pair<NodeId, NodeId>> edges;
  std::set<NodeId> forwarders;
  std::vector<double> fractions;
  std::size_t instances = 0;
  std::vector<NodeId> previous;
  for (std::uint32_t j = 1; j <= 40; ++j) {
    BuiltPath path;
    if (!previous.empty() && gen.bernoulli(0.25)) {
      path.nodes = previous;  // a reused path: every edge already seen
    } else {
      path.nodes.push_back(kInitiator);
      const std::uint64_t len = gen.below(7);
      for (std::uint64_t h = 0; h < len; ++h) {
        path.nodes.push_back(static_cast<NodeId>(1 + gen.below(5)));
      }
      path.nodes.push_back(kResponder);
    }
    previous = path.nodes;

    std::size_t fresh = 0;
    for (std::size_t i = 0; i + 1 < path.nodes.size(); ++i) {
      if (i > 0) forwarders.insert(path.nodes[i]);
      if (edges.insert({path.nodes[i], path.nodes[i + 1]}).second) ++fresh;
    }
    const std::size_t hops = path.nodes.size() - 1;
    fractions.push_back(static_cast<double>(fresh) / static_cast<double>(hops));
    instances += path.forwarder_count();

    session.adopt_connection(std::move(path), world.history, ledger, world.overlay);
    ASSERT_EQ(session.new_edge_fractions(), fractions) << "connection " << j;
    EXPECT_EQ(session.forwarder_set().size(), forwarders.size());
    EXPECT_EQ(session.forwarder_set().empty(), forwarders.empty());
    EXPECT_EQ(std::set<NodeId>(session.forwarder_set().begin(), session.forwarder_set().end()),
              forwarders);
    const double expected_quality =
        forwarders.empty()
            ? 0.0
            : (static_cast<double>(instances) / static_cast<double>(j)) /
                  static_cast<double>(forwarders.size());
    EXPECT_EQ(session.path_quality(), expected_quality) << "connection " << j;
  }

  auto stream = world.root.child("adopt-settle");
  const SettleOutcome out = session.settle(bank, engine, ledger, stream);
  EXPECT_EQ(out.forwarder_set_size, forwarders.size());
  EXPECT_EQ(out.report.forwarder_set_size, forwarders.size());
  EXPECT_EQ(out.report.accepted_claims, instances);
  EXPECT_EQ(out.report.refunded, 0);
}
