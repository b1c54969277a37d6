// Sharded settlement plane contracts (src/payment/sharded_settlement.*):
// batched claim submission is outcome-identical to sequential submit_claim,
// every bank partition conserves money independently AND the merged view
// conserves globally, a forged aggregate MAC refuses the whole batch before
// the engine sees it, and a settlement nonce opened on two different bank
// partitions — impossible through the routed entry points — is caught by
// the merge reconciliation's cross-partition uniqueness check.
#include "payment/sharded_settlement.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "payment/settlement.hpp"

using namespace p2panon::payment;
namespace rng = p2panon::sim::rng;
using p2panon::net::NodeId;
using p2panon::net::PairId;

namespace {

constexpr double kInitialCredits = 1000.0;

/// Two recorded paths of pair `pair`:
///   conn 1: 0 -> 1 -> 2 -> 4
///   conn 2: 0 -> 1 -> 3 -> 4
std::vector<PathRecord> two_records() {
  return {PathRecord{1, 0, 4, {1, 2}}, PathRecord{2, 0, 4, {1, 3}}};
}

/// Receipts for every forwarder instance on the two paths, keyed by
/// `key_of(fwd)`.
template <typename KeyFn>
std::vector<std::pair<NodeId, ForwardReceipt>> all_receipts(PairId pair, KeyFn key_of) {
  std::vector<std::pair<NodeId, ForwardReceipt>> out;
  out.emplace_back(1, make_receipt(key_of(1), pair, 1, 1, 0, 2));
  out.emplace_back(2, make_receipt(key_of(2), pair, 1, 2, 1, 4));
  out.emplace_back(1, make_receipt(key_of(1), pair, 2, 1, 0, 3));
  out.emplace_back(3, make_receipt(key_of(3), pair, 2, 3, 1, 4));
  return out;
}

/// One standalone bank + engine over accounts 0..4 with an open settlement,
/// for the batch-vs-sequential equivalence pin.
struct SerialRig {
  static constexpr PairId kPair = 11;
  Amount p_f = from_credits(10.0);
  Amount p_r = from_credits(20.0);
  Bank bank{rng::Stream(1).child("bank")};
  SettlementEngine engine{bank};
  std::vector<AccountId> accounts;
  SettlementId sid = 0;

  SerialRig() {
    for (NodeId n = 0; n < 5; ++n) {
      accounts.push_back(bank.open_account(n, from_credits(kInitialCredits), 0xF00 + n));
    }
    Wallet wallet(bank, accounts[0], rng::Stream(7).child("w"));
    auto coins = wallet.withdraw(4 * p_f + p_r);
    auto escrow = bank.open_escrow(*coins);
    sid = engine.open(kPair, *escrow, SettlementTerms{p_f, p_r}, two_records(), accounts[0]);
  }

  [[nodiscard]] crypto::u64 key_of(NodeId n) const { return bank.account_mac_key(accounts[n]); }
};

}  // namespace

TEST(ClaimBatch, MatchesSequentialSubmitClaimExactly) {
  SerialRig seq;
  SerialRig batch;

  // Sequential oracle: one submit_claim per receipt, in order.
  std::size_t seq_accepted = 0;
  for (const auto& [fwd, r] : all_receipts(SerialRig::kPair, [&](NodeId n) { return seq.key_of(n); })) {
    if (seq.engine.submit_claim(seq.sid, seq.accounts[fwd], r) == ClaimResult::kAccepted) {
      ++seq_accepted;
    }
  }

  // Batched: group the same receipts per claimant (order preserved).
  for (NodeId fwd : {1, 2, 3}) {
    std::vector<ForwardReceipt> group;
    for (const auto& [f, r] : all_receipts(SerialRig::kPair, [&](NodeId n) { return batch.key_of(n); })) {
      if (f == fwd) group.push_back(r);
    }
    batch.engine.submit_claim_batch(batch.sid, batch.accounts[fwd], group);
  }

  const SettlementReport& a = seq.engine.close(seq.sid);
  const SettlementReport& b = batch.engine.close(batch.sid);
  EXPECT_EQ(seq_accepted, 4u);
  EXPECT_EQ(a.accepted_claims, b.accepted_claims);
  EXPECT_EQ(a.paid_out, b.paid_out);
  EXPECT_EQ(a.refunded, b.refunded);
  EXPECT_EQ(a.payouts, b.payouts);
  EXPECT_EQ(seq.engine.claims_accepted(), batch.engine.claims_accepted());
  EXPECT_EQ(seq.engine.claims_rejected(), batch.engine.claims_rejected());
}

TEST(ClaimBatch, BadReceiptMacRejectedWithinBatch) {
  SerialRig rig;
  auto good = make_receipt(rig.key_of(1), SerialRig::kPair, 1, 1, 0, 2);
  auto forged = make_receipt(rig.key_of(1), SerialRig::kPair, 2, 1, 0, 3);
  forged.mac ^= 1;  // breaks the per-receipt MAC only
  const auto out =
      rig.engine.submit_claim_batch(rig.sid, rig.accounts[1], std::vector{good, forged});
  EXPECT_EQ(out.accepted, 1u);
  EXPECT_EQ(out.rejected, 1u);
}

namespace {

/// Plane fixture: B = 3 partitions over 8 nodes, two settled pairs.
class PlaneTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kNodes = 8;
  static constexpr std::uint32_t kPartitions = 3;
  const Amount p_f_ = from_credits(10.0);
  const Amount p_r_ = from_credits(20.0);

  ShardedSettlementPlane plane_{kPartitions, kNodes, from_credits(kInitialCredits),
                                rng::Stream(42).child("plane")};

  /// Open pair `key`, submit one sealed aggregate per forwarder, close.
  SettlementHandle settle_pair(SettlementKey key) {
    const auto pair = static_cast<PairId>(key);
    auto handle = plane_.open_settlement(key, pair, 0, 4 * p_f_ + p_r_,
                                         SettlementTerms{p_f_, p_r_}, two_records());
    EXPECT_TRUE(handle.has_value());
    for (NodeId fwd : {1, 2, 3}) {
      AggregatedClaim claim;
      claim.claimant = plane_.account_of(fwd);
      claim.epoch = 0;
      for (const auto& [f, r] :
           all_receipts(pair, [&](NodeId n) { return plane_.mac_key_of(n); })) {
        if (f == fwd) claim.receipts.push_back(r);
      }
      seal_aggregated_claim(plane_.mac_key_of(fwd), key, claim);
      const auto out = plane_.submit_aggregated_claim(key, *handle, claim);
      EXPECT_TRUE(out.aggregate_mac_ok);
      EXPECT_EQ(out.rejected, 0u);
    }
    plane_.close_settlement(*handle);
    return *handle;
  }
};

}  // namespace

TEST_F(PlaneTest, ConservationPerPartitionAndGlobally) {
  const SettlementHandle h1 = settle_pair(11);
  const SettlementHandle h2 = settle_pair(12);
  // Distinct keys may or may not share a partition; conservation holds
  // either way, in every partition and in the merged view.
  const PlaneReconciliation rec = plane_.reconcile();
  ASSERT_EQ(rec.partitions.size(), plane_.partition_count());
  for (std::uint32_t b = 0; b < plane_.partition_count(); ++b) {
    EXPECT_TRUE(rec.partitions[b].conserved) << "partition " << b;
  }
  EXPECT_TRUE(rec.global_conserved);
  EXPECT_EQ(rec.cross_partition_replays, 0u);
  EXPECT_TRUE(rec.ok());
  EXPECT_EQ(rec.closed, 2u);
  EXPECT_EQ(rec.claims_accepted, 8u);

  // Forwarders earned, the initiator paid — visible through merged_balance
  // regardless of which partitions hosted the settlements.
  EXPECT_GT(plane_.merged_balance(plane_.account_of(1)), from_credits(kInitialCredits));
  EXPECT_LT(plane_.merged_balance(plane_.account_of(0)), from_credits(kInitialCredits));
  (void)h1;
  (void)h2;
}

TEST(AggregatedClaimMac, ValueIsPinned) {
  // Two receipts of one forwarder in one epoch of settlement 11, sealed
  // under a fixed key: one mix64 chain over (settlement, claimant, epoch,
  // count) and then each receipt's words and MAC. The value was computed
  // apart from this code.
  constexpr p2panon::payment::crypto::u64 kKey = 0xF00D;
  AggregatedClaim claim;
  claim.claimant = 3;
  claim.epoch = 2;
  claim.receipts = {make_receipt(kKey, 11, 1, 3, 0, 4), make_receipt(kKey, 11, 2, 3, 1, 5)};
  seal_aggregated_claim(kKey, 11, claim);
  EXPECT_EQ(claim.aggregate_mac, 0xC28572CF892FB6FBULL);
}

TEST_F(PlaneTest, ForgedAggregateMacRefusedBeforeEngine) {
  const SettlementKey key = 21;
  auto handle = plane_.open_settlement(key, static_cast<PairId>(key), 0, 4 * p_f_ + p_r_,
                                       SettlementTerms{p_f_, p_r_}, two_records());
  ASSERT_TRUE(handle.has_value());
  AggregatedClaim claim;
  claim.claimant = plane_.account_of(1);
  claim.epoch = 0;
  claim.receipts.push_back(make_receipt(plane_.mac_key_of(1), static_cast<PairId>(key), 1, 1, 0, 2));
  seal_aggregated_claim(plane_.mac_key_of(1), key, claim);
  claim.aggregate_mac ^= 1;

  const auto out = plane_.submit_aggregated_claim(key, *handle, claim);
  EXPECT_FALSE(out.aggregate_mac_ok);
  EXPECT_EQ(out.accepted, 0u);
  EXPECT_EQ(out.rejected, 1u);
  EXPECT_EQ(plane_.aggregates_refused(), 1u);
  // The engine never saw the batch: a follow-up honest aggregate still
  // redeems every receipt.
  AggregatedClaim honest = claim;
  honest.aggregate_mac = 0;
  seal_aggregated_claim(plane_.mac_key_of(1), key, honest);
  const auto ok = plane_.submit_aggregated_claim(key, *handle, honest);
  EXPECT_TRUE(ok.aggregate_mac_ok);
  EXPECT_EQ(ok.accepted, 1u);
  plane_.close_settlement(*handle);
  EXPECT_TRUE(plane_.reconcile().ok());
}

TEST_F(PlaneTest, ExpiredSettlementRefundsAndReconciles) {
  const SettlementKey key = 31;
  auto handle = plane_.open_settlement(key, static_cast<PairId>(key), 0, 4 * p_f_ + p_r_,
                                       SettlementTerms{p_f_, p_r_}, two_records(),
                                       /*deadline=*/100.0);
  ASSERT_TRUE(handle.has_value());
  EXPECT_EQ(plane_.expire_due(101.0), 1u);
  const PlaneReconciliation rec = plane_.reconcile();
  EXPECT_TRUE(rec.ok());
  EXPECT_EQ(rec.expired, 1u);
  EXPECT_EQ(rec.refunded_milli, 4 * p_f_ + p_r_);
  EXPECT_EQ(plane_.merged_balance(plane_.account_of(0)), from_credits(kInitialCredits));
}

TEST_F(PlaneTest, CrossPartitionReplayCaughtByReconciliation) {
  // Route pair 11 to its home partition honestly, then smuggle one of its
  // receipts into a *different* partition's engine by bypassing the routed
  // entry points. Each engine's nonce ledger is partition-local, so the
  // foreign engine opens the pair's nonce again and accepts the smuggled
  // copy — only the merge reconciliation's global nonce-uniqueness pass
  // can catch it, and must.
  const SettlementKey key = 11;
  const SettlementHandle home = settle_pair(key);
  const std::uint32_t other = (home.partition + 1) % kPartitions;

  // Open a sibling settlement with the same pair id and records directly on
  // the foreign partition and redeem the same receipt there.
  // lint-exempt(bank-partition): negative test drives a cross-partition replay
  BankPartition& foreign = plane_.partition(other);
  Wallet wallet(foreign.bank, plane_.account_of(0), rng::Stream(9).child("w"));
  auto coins = wallet.withdraw(4 * p_f_ + p_r_);
  ASSERT_TRUE(coins.has_value());
  auto escrow = foreign.bank.open_escrow(*coins);
  ASSERT_TRUE(escrow.has_value());
  // lint-exempt(bank-partition): negative test drives a cross-partition replay
  const SettlementId sid =
      foreign.engine.open(static_cast<PairId>(key), *escrow, SettlementTerms{p_f_, p_r_},
                          two_records(), plane_.account_of(0));
  const auto replayed =
      make_receipt(plane_.mac_key_of(1), static_cast<PairId>(key), 1, 1, 0, 2);
  // lint-exempt(bank-partition): negative test drives a cross-partition replay
  EXPECT_EQ(foreign.engine.submit_claim(sid, plane_.account_of(1), replayed),
            ClaimResult::kAccepted);
  // lint-exempt(bank-partition): negative test drives a cross-partition replay
  foreign.engine.close(sid);

  const PlaneReconciliation rec = plane_.reconcile();
  EXPECT_GE(rec.cross_partition_replays, 1u);
  EXPECT_FALSE(rec.ok());
}
