// The C1–C5 money audit (payment::audit_settlements): an honest universe
// passes, and each invariant, broken on its own, flips exactly its flag.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "payment/settlement.hpp"
#include "payment/token.hpp"

using namespace p2panon::payment;
namespace rng = p2panon::sim::rng;
using p2panon::net::NodeId;

namespace {

/// A bank journaled from its first account, nodes 0..4 funded, and one
/// settlement of node 0 over two paths: 0 -> 1 -> 2 -> 4 and 0 -> 1 -> 3 -> 4.
/// Only forwarder 1 claims, so closing pays some of the escrow and refunds
/// the rest.
struct Universe {
  static constexpr p2panon::net::PairId kPair = 7;

  AuditLog journal;
  Bank bank{rng::Stream(3).child("bank")};
  SettlementEngine engine{bank};
  Amount initial = 0;
  SettlementId sid = 0;

  explicit Universe(bool close) {
    bank.attach_audit(&journal);
    for (NodeId n = 0; n < 5; ++n) bank.open_account(n, from_credits(100.0), 0xA0 + n);
    initial = bank.total_money() + bank.outstanding_coin_value();

    const SettlementTerms terms{from_credits(2.0), from_credits(3.0)};
    Wallet wallet(bank, 0, rng::Stream(3).child("wallet"));
    const auto coins = wallet.withdraw(4 * terms.forwarding_benefit + terms.routing_benefit);
    const auto escrow = bank.open_escrow(*coins);
    const std::vector<PathRecord> records{PathRecord{1, 0, 4, {1, 2}},
                                          PathRecord{2, 0, 4, {1, 3}}};
    sid = engine.open(kPair, *escrow, terms, records, 0);
    for (const auto& [conn, succ] : {std::pair{1u, NodeId{2}}, std::pair{2u, NodeId{3}}}) {
      (void)engine.submit_claim(
          sid, 1, make_receipt(bank.account_mac_key(1), kPair, conn, 1, 0, succ));
    }
    if (close) (void)engine.close(sid);
  }
};

/// The names of the invariant flags that are false.
std::vector<std::string> failed(const PartitionAudit& a) {
  std::vector<std::string> out;
  if (!a.conserved) out.emplace_back("C1 conserved");
  if (!a.all_terminal) out.emplace_back("C2 all_terminal");
  if (!a.escrows_drained) out.emplace_back("C3 escrows_drained");
  if (!a.replay_ok) out.emplace_back("C4 replay_ok");
  if (!a.payouts_match) out.emplace_back("C4 payouts_match");
  if (!a.expired_refunded) out.emplace_back("C5 expired_refunded");
  return out;
}

using Names = std::vector<std::string>;

}  // namespace

TEST(SettlementAudit, EachInvariantFlagsItsViolation) {
  const Universe honest(/*close=*/true);
  const PartitionAudit clean =
      audit_settlements(honest.bank, honest.journal, honest.engine, honest.initial);
  EXPECT_EQ(failed(clean), Names{});
  EXPECT_TRUE(clean.ok());
  EXPECT_EQ(clean.closed, 1u);
  ASSERT_GT(clean.paid_milli, 0);
  ASSERT_GT(clean.refunded_milli, 0);
  EXPECT_EQ(clean.escrow_milli, clean.paid_milli + clean.refunded_milli);

  // C1: the bank is measured against the wrong amount of money created.
  EXPECT_EQ(failed(audit_settlements(honest.bank, honest.journal, honest.engine,
                                     honest.initial + 1)),
            Names{"C1 conserved"});

  // C2: a settlement left open.
  const Universe open(/*close=*/false);
  EXPECT_EQ(failed(audit_settlements(open.bank, open.journal, open.engine, open.initial)),
            Names{"C2 all_terminal"});

  // C4: a journal that books one payout as a refund. Replay still lands on
  // the same balances (both move escrow to an account), but the journal's
  // pay and refund flows no longer match the report.
  AuditLog relabelled;
  bool swapped = false;
  for (const Transaction& tx : honest.journal.transactions()) {
    TxKind kind = tx.kind;
    if (!swapped && kind == TxKind::kEscrowPay) {
      kind = TxKind::kEscrowRefund;
      swapped = true;
    }
    relabelled.record(kind, tx.account, tx.escrow, tx.amount);
  }
  ASSERT_TRUE(swapped);
  EXPECT_EQ(failed(audit_settlements(honest.bank, relabelled, honest.engine, honest.initial)),
            Names{"C4 payouts_match"});
}
