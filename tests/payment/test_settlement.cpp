#include "payment/settlement.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "payment/token.hpp"

using namespace p2panon::payment;
namespace rng = p2panon::sim::rng;
using p2panon::net::NodeId;

namespace {

/// The payout `report` made to `acct`; throws like std::map::at if none.
Amount payout_of(const SettlementReport& report, AccountId acct) {
  for (const auto& [paid_to, amount] : report.payouts) {
    if (paid_to == acct) return amount;
  }
  throw std::out_of_range("no payout to this account");
}

/// Fixture: bank with accounts for nodes 0..4, node 0 the initiator; one
/// funded escrow; a settlement over two recorded paths:
///   conn 1: 0 -> 1 -> 2 -> R(4)
///   conn 2: 0 -> 1 -> 3 -> R(4)
/// Terms: P_f = 10 credits, P_r = 20 credits; ||pi|| = 3 (forwarders 1,2,3);
/// total instances = 4.
class SettlementTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (NodeId n = 0; n < 5; ++n) {
      accounts_.push_back(bank_.open_account(n, from_credits(1000.0), 0xF00 + n));
    }
    refund_ = bank_.open_pseudonymous_account();

    Wallet wallet(bank_, accounts_[0], rng::Stream(7).child("w"));
    const Amount committed = 4 * p_f_ + p_r_;
    auto coins = wallet.withdraw(committed);
    ASSERT_TRUE(coins.has_value());
    auto escrow = bank_.open_escrow(*coins);
    ASSERT_TRUE(escrow.has_value());
    escrow_ = *escrow;

    std::vector<PathRecord> records{
        PathRecord{1, 0, 4, {1, 2}},
        PathRecord{2, 0, 4, {1, 3}},
    };
    sid_ = engine_.open(kPair, escrow_, SettlementTerms{p_f_, p_r_}, records, refund_);
  }

  ForwardReceipt receipt_for(NodeId fwd, std::uint32_t conn, NodeId pred, NodeId succ) {
    return make_receipt(bank_.account_mac_key(accounts_[fwd]), kPair, conn, fwd, pred, succ);
  }

  static constexpr p2panon::net::PairId kPair = 11;
  const Amount p_f_ = from_credits(10.0);
  const Amount p_r_ = from_credits(20.0);

  Bank bank_{rng::Stream(1).child("bank")};
  SettlementEngine engine_{bank_};
  std::vector<AccountId> accounts_;
  AccountId refund_ = kInvalidAccount;
  EscrowId escrow_ = 0;
  SettlementId sid_ = 0;
};

}  // namespace

TEST_F(SettlementTest, ForwarderSetSizeFromRecords) {
  EXPECT_EQ(engine_.forwarder_set_size(sid_), 3u);
}

TEST_F(SettlementTest, HonestClaimsAccepted) {
  EXPECT_EQ(engine_.submit_claim(sid_, accounts_[1], receipt_for(1, 1, 0, 2)),
            ClaimResult::kAccepted);
  EXPECT_EQ(engine_.submit_claim(sid_, accounts_[2], receipt_for(2, 1, 1, 4)),
            ClaimResult::kAccepted);
  EXPECT_EQ(engine_.submit_claim(sid_, accounts_[1], receipt_for(1, 2, 0, 3)),
            ClaimResult::kAccepted);
  EXPECT_EQ(engine_.submit_claim(sid_, accounts_[3], receipt_for(3, 2, 1, 4)),
            ClaimResult::kAccepted);
}

TEST_F(SettlementTest, FullSettlementPaysMPfPlusShares) {
  engine_.submit_claim(sid_, accounts_[1], receipt_for(1, 1, 0, 2));
  engine_.submit_claim(sid_, accounts_[2], receipt_for(2, 1, 1, 4));
  engine_.submit_claim(sid_, accounts_[1], receipt_for(1, 2, 0, 3));
  engine_.submit_claim(sid_, accounts_[3], receipt_for(3, 2, 1, 4));
  const SettlementReport& report = engine_.close(sid_);

  // Node 1 forwarded twice: 2*P_f + a routing share. P_r = 20000 milli
  // splits over ||pi|| = 3 as [6667, 6667, 6666] (largest remainder), paid
  // in ascending account order.
  const Amount share = p_r_ / 3;  // 6666
  EXPECT_EQ(payout_of(report, accounts_[1]), 2 * p_f_ + share + 1);
  EXPECT_EQ(payout_of(report, accounts_[2]), p_f_ + share + 1);
  EXPECT_EQ(payout_of(report, accounts_[3]), p_f_ + share);
  EXPECT_EQ(report.paid_out + report.refunded, report.escrow_in);
  EXPECT_EQ(report.refunded, 0);  // everything claimed
  EXPECT_EQ(report.accepted_claims, 4u);
  EXPECT_EQ(report.forwarder_set_size, 3u);
}

TEST_F(SettlementTest, ForgedMacRejected) {
  ForwardReceipt r = receipt_for(1, 1, 0, 2);
  r.mac ^= 1;  // tamper
  EXPECT_EQ(engine_.submit_claim(sid_, accounts_[1], r), ClaimResult::kBadMac);
}

TEST_F(SettlementTest, ReceiptSignedWithWrongKeyRejected) {
  // Node 2 forges a receipt for node 1's hop using its own key.
  ForwardReceipt r = make_receipt(bank_.account_mac_key(accounts_[2]), kPair, 1, 1, 0, 2);
  EXPECT_EQ(engine_.submit_claim(sid_, accounts_[1], r), ClaimResult::kBadMac);
}

TEST_F(SettlementTest, ClaimingSomeoneElsesReceiptRejected) {
  // Node 2 tries to redeem node 1's (valid) receipt.
  ForwardReceipt r = receipt_for(1, 1, 0, 2);
  EXPECT_EQ(engine_.submit_claim(sid_, accounts_[2], r), ClaimResult::kWrongClaimant);
}

TEST_F(SettlementTest, OverClaimRejected) {
  // Node 3 claims a hop on connection 1 where it never forwarded.
  ForwardReceipt r = receipt_for(3, 1, 0, 4);
  EXPECT_EQ(engine_.submit_claim(sid_, accounts_[3], r), ClaimResult::kNotOnPath);
}

TEST_F(SettlementTest, ReplayRejected) {
  EXPECT_EQ(engine_.submit_claim(sid_, accounts_[1], receipt_for(1, 1, 0, 2)),
            ClaimResult::kAccepted);
  EXPECT_EQ(engine_.submit_claim(sid_, accounts_[1], receipt_for(1, 1, 0, 2)),
            ClaimResult::kDuplicate);
}

TEST_F(SettlementTest, WrongPairIdRejected) {
  ForwardReceipt r = make_receipt(bank_.account_mac_key(accounts_[1]), 999, 1, 1, 0, 2);
  EXPECT_EQ(engine_.submit_claim(sid_, accounts_[1], r), ClaimResult::kUnknownSettlement);
}

TEST_F(SettlementTest, UnknownSettlementIdRejected) {
  EXPECT_EQ(engine_.submit_claim(12345, accounts_[1], receipt_for(1, 1, 0, 2)),
            ClaimResult::kUnknownSettlement);
}

TEST_F(SettlementTest, UnclaimedSharesRefundedNotRedistributed) {
  // Only node 1 claims (both instances); nodes 2 and 3 never claim.
  engine_.submit_claim(sid_, accounts_[1], receipt_for(1, 1, 0, 2));
  engine_.submit_claim(sid_, accounts_[1], receipt_for(1, 2, 0, 3));
  const SettlementReport& report = engine_.close(sid_);

  // Node 1 gets its 2*P_f plus exactly ONE routing share of P_r/||pi||
  // (the first largest-remainder share, 6667 of 20000/3).
  EXPECT_EQ(payout_of(report, accounts_[1]), 2 * p_f_ + p_r_ / 3 + 1);
  // The rest (2 unclaimed P_f instances + 2 routing shares) is refunded.
  EXPECT_EQ(report.paid_out + report.refunded, report.escrow_in);
  EXPECT_GT(report.refunded, 0);
  EXPECT_EQ(bank_.balance(refund_), report.refunded);
}

TEST_F(SettlementTest, CloseIsIdempotent) {
  engine_.submit_claim(sid_, accounts_[1], receipt_for(1, 1, 0, 2));
  const SettlementReport& first = engine_.close(sid_);
  const SettlementReport& second = engine_.close(sid_);
  EXPECT_EQ(first.paid_out, second.paid_out);
  EXPECT_EQ(&first, &second);
  EXPECT_TRUE(engine_.is_closed(sid_));
}

TEST_F(SettlementTest, ClaimAfterCloseRejected) {
  engine_.close(sid_);
  EXPECT_EQ(engine_.submit_claim(sid_, accounts_[1], receipt_for(1, 1, 0, 2)),
            ClaimResult::kNotOpen);
  EXPECT_EQ(engine_.claims_after_terminal(), 1u);
}

TEST_F(SettlementTest, RejectedClaimsCounted) {
  ForwardReceipt bad = receipt_for(1, 1, 0, 2);
  bad.mac ^= 1;
  engine_.submit_claim(sid_, accounts_[1], bad);
  engine_.submit_claim(sid_, accounts_[3], receipt_for(3, 1, 0, 4));  // over-claim
  const SettlementReport& report = engine_.close(sid_);
  EXPECT_EQ(report.rejected_claims, 2u);
}

TEST_F(SettlementTest, MoneyConservedThroughSettlement) {
  const Amount before = bank_.total_money() + bank_.outstanding_coin_value();
  engine_.submit_claim(sid_, accounts_[1], receipt_for(1, 1, 0, 2));
  engine_.submit_claim(sid_, accounts_[2], receipt_for(2, 1, 1, 4));
  engine_.close(sid_);
  EXPECT_EQ(bank_.total_money() + bank_.outstanding_coin_value(), before);
}

TEST(SettlementRepeatedForwarder, NodeOnTwoPositionsOfOnePath) {
  // Path: 0 -> 1 -> 2 -> 1 -> R(3): node 1 occupies two positions with
  // different (pred, succ); both instances must be claimable.
  Bank bank(rng::Stream(20).child("bank"));
  SettlementEngine engine(bank);
  std::vector<AccountId> acct;
  for (NodeId n = 0; n < 4; ++n) acct.push_back(bank.open_account(n, from_credits(100.0), n + 1));
  const AccountId refund = bank.open_pseudonymous_account();

  Wallet wallet(bank, acct[0], rng::Stream(21).child("w"));
  const Amount p_f = from_credits(5.0), p_r = from_credits(10.0);
  auto coins = wallet.withdraw(3 * p_f + p_r);
  auto escrow = bank.open_escrow(*coins);
  ASSERT_TRUE(escrow.has_value());

  std::vector<PathRecord> records{PathRecord{1, 0, 3, {1, 2, 1}}};
  const SettlementId sid = engine.open(5, *escrow, SettlementTerms{p_f, p_r}, records, refund);
  EXPECT_EQ(engine.forwarder_set_size(sid), 2u);  // {1, 2}

  auto r1a = make_receipt(bank.account_mac_key(acct[1]), 5, 1, 1, 0, 2);
  auto r2 = make_receipt(bank.account_mac_key(acct[2]), 5, 1, 2, 1, 1);
  auto r1b = make_receipt(bank.account_mac_key(acct[1]), 5, 1, 1, 2, 3);
  EXPECT_EQ(engine.submit_claim(sid, acct[1], r1a), ClaimResult::kAccepted);
  EXPECT_EQ(engine.submit_claim(sid, acct[2], r2), ClaimResult::kAccepted);
  EXPECT_EQ(engine.submit_claim(sid, acct[1], r1b), ClaimResult::kAccepted);

  const auto& report = engine.close(sid);
  EXPECT_EQ(report.accepted_claims, 3u);
  // Node 1: 2 instances + one routing share (of 2).
  EXPECT_EQ(payout_of(report, acct[1]), 2 * p_f + p_r / 2);
  EXPECT_EQ(payout_of(report, acct[2]), p_f + p_r / 2);
}

TEST(SettlementForwarderNumbering, AnyIdCountsOnceAndNumberingResetsPerOpen) {
  // Records may come from a peer over the wire and name any node id: ids
  // far past any overlay (kInvalidNode included) count once each in
  // ||pi||, and the next open numbers its own forwarders afresh.
  Bank bank(rng::Stream(22).child("bank"));
  SettlementEngine engine(bank);
  const AccountId refund = bank.open_pseudonymous_account();
  constexpr NodeId kFar = 0xFFFFFFF0u;
  constexpr NodeId kInvalid = p2panon::net::kInvalidNode;
  const std::vector<PathRecord> hostile{PathRecord{1, 0, 3, {kFar, 1, kFar, kInvalid}},
                                        PathRecord{2, 0, 3, {kInvalid, 2, 1}}};
  const SettlementId a = engine.open(6, 0, SettlementTerms{1, 2}, hostile, refund);
  EXPECT_EQ(engine.forwarder_set_size(a), 4u);  // {kFar, 1, kInvalid, 2}
  const std::vector<PathRecord> plain{PathRecord{1, 0, 3, {2, 1, 2}}};
  const SettlementId b = engine.open(7, 0, SettlementTerms{1, 2}, plain, refund);
  EXPECT_EQ(engine.forwarder_set_size(b), 2u);  // {2, 1}: nothing left from the first open
  // 300 distinct forwarders, twice over, then a small set again: each open
  // counts only its own.
  std::vector<PathRecord> large;
  for (std::uint32_t c = 0; c < 100; ++c) {
    large.push_back(PathRecord{c, 0, 3, {10 + 3 * c, 11 + 3 * c, 12 + 3 * c, 10 + 3 * c}});
  }
  const SettlementId c = engine.open(8, 0, SettlementTerms{1, 2}, large, refund);
  EXPECT_EQ(engine.forwarder_set_size(c), 300u);
  const SettlementId d = engine.open(9, 0, SettlementTerms{1, 2}, large, refund);
  EXPECT_EQ(engine.forwarder_set_size(d), 300u);
  const SettlementId e = engine.open(10, 0, SettlementTerms{1, 2}, plain, refund);
  EXPECT_EQ(engine.forwarder_set_size(e), 2u);
}

// --- Crash-tolerant lifecycle (state machine, deadlines, replay guards). ---

TEST_F(SettlementTest, StateMachineOpenClaimingClosed) {
  EXPECT_EQ(engine_.state(sid_), SettlementState::kOpen);
  EXPECT_EQ(engine_.open_settlements(), 1u);
  EXPECT_EQ(engine_.report(sid_), nullptr);

  engine_.submit_claim(sid_, accounts_[1], receipt_for(1, 1, 0, 2));
  EXPECT_EQ(engine_.state(sid_), SettlementState::kClaiming);
  EXPECT_FALSE(engine_.is_closed(sid_));

  const SettlementReport& report = engine_.close(sid_);
  EXPECT_EQ(engine_.state(sid_), SettlementState::kClosed);
  EXPECT_EQ(report.outcome, SettlementState::kClosed);
  EXPECT_FALSE(report.pro_rata);
  EXPECT_EQ(report.completed_connections, 2u);
  EXPECT_EQ(engine_.open_settlements(), 0u);
  EXPECT_EQ(engine_.report(sid_), &report);
}

TEST_F(SettlementTest, AbandonWithClaimsPaysProRata) {
  const Amount before = bank_.total_money() + bank_.outstanding_coin_value();
  engine_.submit_claim(sid_, accounts_[1], receipt_for(1, 1, 0, 2));
  const SettlementReport& report = engine_.abandon(sid_);

  EXPECT_EQ(engine_.state(sid_), SettlementState::kAbandoned);
  EXPECT_EQ(report.outcome, SettlementState::kAbandoned);
  EXPECT_TRUE(report.pro_rata);
  // The one verified instance pays m*P_f + its routing share; the rest of
  // the escrow goes back to the initiator's refund account.
  EXPECT_EQ(payout_of(report, accounts_[1]), p_f_ + p_r_ / 3 + 1);
  EXPECT_EQ(report.paid_out + report.refunded, report.escrow_in);
  EXPECT_EQ(bank_.balance(refund_), report.refunded);
  EXPECT_EQ(bank_.total_money() + bank_.outstanding_coin_value(), before);
}

TEST_F(SettlementTest, AbandonWithoutClaimsExpiresWithFullRefund) {
  const SettlementReport& report = engine_.abandon(sid_);
  EXPECT_EQ(engine_.state(sid_), SettlementState::kExpired);
  EXPECT_EQ(report.outcome, SettlementState::kExpired);
  EXPECT_FALSE(report.pro_rata);
  EXPECT_EQ(report.paid_out, 0);
  EXPECT_EQ(report.refunded, report.escrow_in);
  EXPECT_EQ(bank_.balance(refund_), report.escrow_in);
}

TEST_F(SettlementTest, DoubleRefundImpossible) {
  // Close pays and refunds once; a racing abandon (or a replayed close) must
  // return the stored report without moving money again.
  engine_.submit_claim(sid_, accounts_[1], receipt_for(1, 1, 0, 2));
  const SettlementReport& first = engine_.close(sid_);
  const Amount refund_after_close = bank_.balance(refund_);

  const SettlementReport& raced = engine_.abandon(sid_);
  EXPECT_EQ(&first, &raced);
  EXPECT_EQ(engine_.state(sid_), SettlementState::kClosed);  // close won
  EXPECT_EQ(bank_.balance(refund_), refund_after_close);
  EXPECT_EQ(engine_.close(sid_).refunded, first.refunded);
  EXPECT_EQ(bank_.balance(refund_), refund_after_close);
}

TEST_F(SettlementTest, ClaimAgainstAbandonedRejected) {
  engine_.submit_claim(sid_, accounts_[1], receipt_for(1, 1, 0, 2));
  engine_.abandon(sid_);
  EXPECT_EQ(engine_.submit_claim(sid_, accounts_[2], receipt_for(2, 1, 1, 4)),
            ClaimResult::kNotOpen);
  EXPECT_EQ(engine_.claims_after_terminal(), 1u);
}

TEST_F(SettlementTest, NoDeadlineNeverExpires) {
  EXPECT_EQ(engine_.deadline(sid_), kNoSettlementDeadline);
  EXPECT_EQ(engine_.expire_due(1.0e12), 0u);
  EXPECT_EQ(engine_.state(sid_), SettlementState::kOpen);
}

TEST_F(SettlementTest, ReplayedReceiptAcrossTwoSettlementsRejected) {
  // The set re-forms: a sibling settlement for the same pair covers the same
  // connection 1 under the pair's next set sequence. A receipt of the first
  // set is bound to the first settlement's nonce, so the sibling refuses it
  // even though the hop is on its records.
  const ForwardReceipt r = receipt_for(1, 1, 0, 2);
  EXPECT_EQ(engine_.submit_claim(sid_, accounts_[1], r), ClaimResult::kAccepted);
  engine_.close(sid_);

  Wallet wallet(bank_, accounts_[0], rng::Stream(8).child("w2"));
  auto coins = wallet.withdraw(2 * p_f_ + p_r_);
  ASSERT_TRUE(coins.has_value());
  auto escrow = bank_.open_escrow(*coins);
  ASSERT_TRUE(escrow.has_value());
  ASSERT_EQ(engine_.next_set_seq(kPair), 1u);
  const SettlementId sibling =
      engine_.open(kPair, *escrow, SettlementTerms{p_f_, p_r_}, {PathRecord{1, 0, 4, {1, 2}}},
                   bank_.open_pseudonymous_account(), kNoSettlementDeadline, 1);
  ASSERT_NE(sibling, kNoSettlement);

  EXPECT_EQ(engine_.submit_claim(sibling, accounts_[1], r), ClaimResult::kUnknownSettlement);
  EXPECT_EQ(engine_.cross_settlement_replays(), 1u);
  // The same hop under the sibling's own nonce is a different receipt, and
  // an instance the first settlement never paid is claimable here too.
  EXPECT_EQ(engine_.submit_claim(sibling, accounts_[1],
                                 make_receipt(bank_.account_mac_key(accounts_[1]), kPair, 1, 1,
                                              0, 2, /*set_seq=*/1)),
            ClaimResult::kAccepted);
  EXPECT_EQ(engine_.submit_claim(sibling, accounts_[2],
                                 make_receipt(bank_.account_mac_key(accounts_[2]), kPair, 1, 2,
                                              1, 4, /*set_seq=*/1)),
            ClaimResult::kAccepted);
}

TEST_F(SettlementTest, ClaimUnderAnotherSetsNonceRejected) {
  // A valid MAC over the right hop and pair, but for set 1 of the pair: this
  // settlement is set 0, so the receipt belongs to another settlement.
  const ForwardReceipt r =
      make_receipt(bank_.account_mac_key(accounts_[1]), kPair, 1, 1, 0, 2, /*set_seq=*/1);
  EXPECT_EQ(engine_.submit_claim(sid_, accounts_[1], r), ClaimResult::kUnknownSettlement);
  EXPECT_EQ(engine_.cross_settlement_replays(), 1u);
  // Set-1 receipts that are not authentic — a forged MAC, or an account
  // that does not own the forwarder — are refused the same way but are no
  // replay.
  ForwardReceipt forged = r;
  forged.mac ^= 1;
  EXPECT_EQ(engine_.submit_claim(sid_, accounts_[1], forged), ClaimResult::kUnknownSettlement);
  const ForwardReceipt misdirected =
      make_receipt(bank_.account_mac_key(accounts_[2]), kPair, 1, 1, 0, 2, /*set_seq=*/1);
  EXPECT_EQ(engine_.submit_claim(sid_, accounts_[2], misdirected),
            ClaimResult::kUnknownSettlement);
  EXPECT_EQ(engine_.cross_settlement_replays(), 1u);
  EXPECT_EQ(engine_.claims_rejected(), 3u);
  EXPECT_EQ(engine_.state(sid_), SettlementState::kOpen);
}

TEST_F(SettlementTest, OpenUnderUsedNonceRefused) {
  EXPECT_EQ(engine_.nonce(sid_), settlement_nonce(kPair));
  EXPECT_TRUE(engine_.has_nonce(settlement_nonce(kPair)));
  Wallet wallet(bank_, accounts_[0], rng::Stream(9).child("w3"));
  auto coins = wallet.withdraw(p_f_ + p_r_);
  ASSERT_TRUE(coins.has_value());
  auto escrow = bank_.open_escrow(*coins);
  ASSERT_TRUE(escrow.has_value());
  // Set 0 of the pair is taken: refused, and nothing about the engine or
  // the escrow moves.
  EXPECT_EQ(engine_.open(kPair, *escrow, SettlementTerms{p_f_, p_r_},
                         {PathRecord{1, 0, 4, {1}}}, refund_),
            kNoSettlement);
  EXPECT_EQ(engine_.settlement_count(), 1u);
  EXPECT_EQ(bank_.escrow_balance(*escrow), p_f_ + p_r_);
  EXPECT_EQ(engine_.submit_claim(kNoSettlement, accounts_[1], receipt_for(1, 1, 0, 2)),
            ClaimResult::kUnknownSettlement);
  // The next sequence opens; then it is taken as well.
  ASSERT_EQ(engine_.next_set_seq(kPair), 1u);
  const SettlementId second = engine_.open(kPair, *escrow, SettlementTerms{p_f_, p_r_},
                                           {PathRecord{1, 0, 4, {1}}}, refund_,
                                           kNoSettlementDeadline, 1);
  EXPECT_EQ(second, 1u);
  EXPECT_EQ(engine_.nonce(second), settlement_nonce(kPair, 1));
  EXPECT_EQ(engine_.next_set_seq(kPair), 2u);
  EXPECT_EQ(engine_.open(kPair, *escrow, SettlementTerms{p_f_, p_r_}, {}, refund_,
                         kNoSettlementDeadline, 1),
            kNoSettlement);
  // Another pair's first set is still free.
  EXPECT_EQ(engine_.next_set_seq(kPair + 1), 0u);
}

TEST(ReceiptMac, ValuesArePinned) {
  // One hop's receipt under sets 0 and 1 of one pair, MAC'd under a fixed
  // key: five keyed mix64 steps over the words (pair | set_seq << 32,
  // conn_index, forwarder, predecessor, successor). The values were computed
  // apart from this code; a change to crypto::mac or to receipt_words()
  // moves them.
  constexpr p2panon::payment::crypto::u64 kKey = 0x0123456789ABCDEFULL;
  EXPECT_EQ(make_receipt(kKey, 42, 3, 7, 6, 8).mac, 0x8658BA48C093FEC8ULL);
  EXPECT_EQ(make_receipt(kKey, 42, 3, 7, 6, 8, /*set_seq=*/1).mac, 0xD94C71FD027A0732ULL);
  static_assert(make_receipt(kKey, 42, 3, 7, 6, 8).nonce() == 42);
}

TEST(SettlementDeadline, ExpireDueSweepsOnlyPastDeadlines) {
  Bank bank(rng::Stream(30).child("bank"));
  SettlementEngine engine(bank);
  std::vector<AccountId> acct;
  for (NodeId n = 0; n < 4; ++n) acct.push_back(bank.open_account(n, from_credits(100.0), n + 1));
  const Amount p_f = from_credits(5.0), p_r = from_credits(10.0);

  auto open_one = [&](std::uint64_t wseed, p2panon::net::PairId pair, double deadline) {
    Wallet wallet(bank, acct[0], rng::Stream(wseed).child("w"));
    auto coins = wallet.withdraw(2 * p_f + p_r);
    auto escrow = bank.open_escrow(*coins);
    EXPECT_TRUE(escrow.has_value());
    return engine.open(pair, *escrow, SettlementTerms{p_f, p_r},
                       {PathRecord{1, 0, 3, {1, 2}}}, bank.open_pseudonymous_account(),
                       deadline);
  };
  const SettlementId early = open_one(31, 5, 100.0);  // claims pending at expiry
  const SettlementId silent = open_one(32, 6, 100.0);  // zero claims at expiry
  const SettlementId late = open_one(33, 7, 500.0);

  EXPECT_EQ(engine.submit_claim(
                early, acct[1], make_receipt(bank.account_mac_key(acct[1]), 5, 1, 1, 0, 2)),
            ClaimResult::kAccepted);

  EXPECT_EQ(engine.expire_due(50.0), 0u);  // nothing due yet
  EXPECT_EQ(engine.expire_due(100.0), 2u);
  EXPECT_EQ(engine.state(early), SettlementState::kAbandoned);
  EXPECT_TRUE(engine.report(early)->pro_rata);
  EXPECT_EQ(engine.state(silent), SettlementState::kExpired);
  EXPECT_EQ(engine.report(silent)->refunded, engine.report(silent)->escrow_in);
  EXPECT_EQ(engine.state(late), SettlementState::kOpen);
  EXPECT_EQ(engine.expire_due(100.0), 0u);  // idempotent
  EXPECT_EQ(engine.expire_due(500.0), 1u);
  EXPECT_EQ(engine.state(late), SettlementState::kExpired);
}
