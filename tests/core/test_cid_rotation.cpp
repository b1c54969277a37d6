#include <gtest/gtest.h>

#include <set>

#include "core/incentive.hpp"
#include "fixtures.hpp"

using namespace p2panon;
using namespace p2panon::core;
using net::NodeId;

namespace {

ConnectionSetSession make_session(std::uint32_t rotation) {
  Contract c;
  c.cid_rotation = rotation;
  return ConnectionSetSession(/*pair=*/7, /*initiator=*/0, /*responder=*/19, c);
}

}  // namespace

TEST(CidRotation, DisabledKeepsRealPair) {
  auto s = make_session(0);
  for (std::uint32_t k = 1; k <= 40; ++k) {
    EXPECT_EQ(s.effective_pair(k), 7u);
    EXPECT_EQ(s.effective_conn_index(k), k);
  }
}

TEST(CidRotation, FirstEpochKeepsRealPair) {
  auto s = make_session(5);
  for (std::uint32_t k = 1; k <= 5; ++k) EXPECT_EQ(s.effective_pair(k), 7u);
  EXPECT_NE(s.effective_pair(6), 7u);
}

TEST(CidRotation, StableWithinEpochFreshAcrossEpochs) {
  auto s = make_session(5);
  std::set<net::PairId> seen;
  for (std::uint32_t epoch = 0; epoch < 6; ++epoch) {
    const net::PairId first = s.effective_pair(epoch * 5 + 1);
    for (std::uint32_t j = 1; j <= 5; ++j) {
      EXPECT_EQ(s.effective_pair(epoch * 5 + j), first) << "cid changed mid-epoch";
    }
    EXPECT_TRUE(seen.insert(first).second) << "epoch cid repeated";
  }
}

TEST(CidRotation, EpochLocalIndexResets) {
  auto s = make_session(4);
  EXPECT_EQ(s.effective_conn_index(1), 1u);
  EXPECT_EQ(s.effective_conn_index(4), 4u);
  EXPECT_EQ(s.effective_conn_index(5), 1u);
  EXPECT_EQ(s.effective_conn_index(9), 1u);
  EXPECT_EQ(s.effective_conn_index(12), 4u);
}

TEST(CidRotation, DistinctPairsGetDistinctEpochCids) {
  Contract c;
  c.cid_rotation = 3;
  ConnectionSetSession a(1, 0, 19, c), b(2, 0, 19, c);
  EXPECT_NE(a.effective_pair(4), b.effective_pair(4));
}

TEST(CidRotation, HistoryRecordedUnderWireCid) {
  p2ptest::StableWorld world(51);
  world.warmup();
  Contract c;
  c.cid_rotation = 3;
  ConnectionSetSession session(7, 0, 19, c);
  UtilityModelIRouting strategy;
  StrategyAssignment assign(world.overlay, strategy);
  PathBuilder builder(world.overlay, world.quality);
  PayoffLedger ledger(world.overlay.size());
  auto stream = world.root.child("run");
  for (std::uint32_t k = 1; k <= 6; ++k) {
    session.run_connection(builder, world.history, assign, ledger, world.overlay, stream);
  }
  // Entries exist under both epoch cids and none under anything else for a
  // forwarder on the first path.
  const BuiltPath& first = session.paths().front();
  if (first.forwarder_count() == 0) GTEST_SKIP() << "direct path";
  const NodeId f1 = first.nodes[1];
  const auto& entries = world.history.at(f1).entries();
  ASSERT_FALSE(entries.empty());
  const net::PairId epoch0 = session.effective_pair(1);
  const net::PairId epoch1 = session.effective_pair(4);
  for (const HistoryEntry& e : entries) {
    EXPECT_TRUE(e.pair == epoch0 || e.pair == epoch1) << "entry under unexpected cid";
    EXPECT_LE(e.conn_index, 3u);  // epoch-local indices only
  }
}

TEST(CidRotation, SettlementStillBalancesWithRotation) {
  p2ptest::StableWorld world(52);
  world.warmup();
  payment::Bank bank(sim::rng::Stream(52).child("bank"));
  payment::SettlementEngine engine(bank);
  auto keys = world.root.child("keys");
  for (NodeId id = 0; id < world.overlay.size(); ++id) {
    bank.open_account(id, payment::from_credits(1.0e7), keys.next_u64());
  }
  Contract c;
  c.cid_rotation = 2;
  ConnectionSetSession session(7, 0, 19, c);
  UtilityModelIRouting strategy;
  StrategyAssignment assign(world.overlay, strategy);
  PathBuilder builder(world.overlay, world.quality);
  PayoffLedger ledger(world.overlay.size());
  auto stream = world.root.child("run");
  for (std::uint32_t k = 1; k <= 6; ++k) {
    session.run_connection(builder, world.history, assign, ledger, world.overlay, stream);
  }
  const payment::Amount before = bank.total_money() + bank.outstanding_coin_value();
  auto settle_stream = world.root.child("settle");
  const SettleOutcome out = session.settle(bank, engine, ledger, settle_stream);
  EXPECT_EQ(bank.total_money() + bank.outstanding_coin_value(), before);
  EXPECT_EQ(out.report.paid_out + out.report.refunded, out.report.escrow_in);
  EXPECT_GT(out.report.accepted_claims, 0u);
}

TEST(CidRotation, RotationGrowsForwarderSet) {
  // The trade-off: rotating cids resets selectivity, so the forwarder set
  // should be at least as large as without rotation.
  auto run_with = [](std::uint32_t rotation) {
    p2ptest::StableWorld world(53);
    world.warmup();
    Contract c;
    c.cid_rotation = rotation;
    ConnectionSetSession session(7, 0, 19, c);
    UtilityModelIRouting strategy;
    StrategyAssignment assign(world.overlay, strategy);
    PathBuilder builder(world.overlay, world.quality);
    PayoffLedger ledger(world.overlay.size());
    auto stream = world.root.child("run");
    for (std::uint32_t k = 1; k <= 20; ++k) {
      session.run_connection(builder, world.history, assign, ledger, world.overlay, stream);
    }
    return session.forwarder_set().size();
  };
  EXPECT_LE(run_with(0), run_with(1));
}
