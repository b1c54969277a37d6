// Payment-system example: the anonymity-preserving payment flow (paper §2.2
// and §5), including every cheating scenario the settlement engine defends
// against.
//
//   ./payment_walkthrough
#include <iostream>

#include "payment/settlement.hpp"
#include "payment/token.hpp"

int main() {
  using namespace p2panon;
  using namespace p2panon::payment;
  sim::rng::Stream root(2026);

  Bank bank(root.child("bank"));
  SettlementEngine engine(bank);

  // Peers 0..4 open accounts; node 0 will be the (anonymous) initiator and
  // node 4 the responder. Each account registers a receipt-MAC key.
  std::vector<AccountId> acct;
  auto keys = root.child("keys");
  for (net::NodeId n = 0; n < 5; ++n) {
    acct.push_back(bank.open_account(n, from_credits(1000.0), keys.next_u64()));
  }

  std::cout << "== 1. Blind withdrawal ==\n";
  Wallet wallet(bank, acct[0], root.child("wallet"));
  const Amount p_f = from_credits(10.0), p_r = from_credits(20.0);
  const Amount committed = 4 * p_f + p_r;  // 4 expected instances + P_r
  auto coins = wallet.withdraw(committed);
  std::cout << "initiator withdrew " << coins->size() << " coins totalling "
            << to_credits(committed) << " credits; the bank signed each coin BLIND,\n"
            << "so deposited coins cannot be linked back to the initiator's account.\n\n";

  std::cout << "== 2. Escrow funding ==\n";
  auto escrow = bank.open_escrow(*coins);
  std::cout << "escrow " << *escrow << " funded with " << to_credits(bank.escrow_balance(*escrow))
            << " credits (coins now marked spent: double-spending them fails)\n";
  Coin replayed = coins->front();
  std::cout << "replaying a funding coin as a deposit -> "
            << (bank.deposit_coin(acct[1], replayed) == DepositResult::kDoubleSpend
                    ? "rejected as double spend"
                    : "ACCEPTED (bug!)")
            << "\n\n";

  std::cout << "== 3. Settlement with receipts ==\n";
  // Two recorded connections: 0 -> 1 -> 2 -> 4 and 0 -> 1 -> 3 -> 4.
  std::vector<PathRecord> records{{1, 0, 4, {1, 2}}, {2, 0, 4, {1, 3}}};
  const AccountId refund = bank.open_pseudonymous_account();
  const SettlementId sid = engine.open(9, *escrow, {p_f, p_r}, records, refund);
  std::cout << "settlement opened; recorded forwarder set ||pi|| = "
            << engine.forwarder_set_size(sid) << "\n";

  auto claim = [&](net::NodeId fwd, std::uint32_t conn, net::NodeId pred, net::NodeId succ) {
    const ForwardReceipt r =
        make_receipt(bank.account_mac_key(acct[fwd]), 9, conn, fwd, pred, succ);
    return engine.submit_claim(sid, acct[fwd], r);
  };
  std::cout << "node 1 claims conn 1 hop: " << (claim(1, 1, 0, 2) == ClaimResult::kAccepted)
            << ", conn 2 hop: " << (claim(1, 2, 0, 3) == ClaimResult::kAccepted) << '\n';
  std::cout << "node 2 claims conn 1 hop: " << (claim(2, 1, 1, 4) == ClaimResult::kAccepted)
            << ", node 3 claims conn 2 hop: " << (claim(3, 2, 1, 4) == ClaimResult::kAccepted)
            << "\n\n";

  std::cout << "== 4. Cheating attempts ==\n";
  // (a) Over-claim: node 3 invents a hop it never forwarded.
  std::cout << "over-claim (node 3, fake hop)      -> "
            << (claim(3, 1, 0, 4) == ClaimResult::kNotOnPath ? "rejected (not on path)" : "?!")
            << '\n';
  // (b) Replay: node 1 resubmits an already-paid receipt.
  std::cout << "replay (node 1, same receipt)      -> "
            << (claim(1, 1, 0, 2) == ClaimResult::kDuplicate ? "rejected (duplicate)" : "?!")
            << '\n';
  // (c) Theft: node 2 tries to redeem node 1's receipt.
  const ForwardReceipt stolen =
      make_receipt(bank.account_mac_key(acct[1]), 9, 1, 1, 0, 2);
  std::cout << "theft (node 2 redeems node 1's)    -> "
            << (engine.submit_claim(sid, acct[2], stolen) == ClaimResult::kWrongClaimant
                    ? "rejected (wrong claimant)"
                    : "?!")
            << '\n';
  // (d) Forgery: node 3 MACs a fake hop with a guessed key.
  ForwardReceipt forged{9, 0, 1, 3, 0, 4, 0xDEADBEEF};
  std::cout << "forgery (bad MAC)                  -> "
            << (engine.submit_claim(sid, acct[3], forged) == ClaimResult::kBadMac
                    ? "rejected (bad MAC)"
                    : "?!")
            << '\n';
  // (e) Initiator refusal: impossible by construction — the escrow was
  // funded before forwarding began, and close() pays from it directly.
  std::cout << "initiator refusal                  -> impossible: escrow pre-funded\n\n";

  std::cout << "== 5. Close and audit ==\n";
  const Amount before = bank.total_money() + bank.outstanding_coin_value();
  const SettlementReport& report = engine.close(sid);
  const Amount after = bank.total_money() + bank.outstanding_coin_value();
  std::cout << "paid out " << to_credits(report.paid_out) << " credits over "
            << report.accepted_claims << " instances; refunded " << to_credits(report.refunded)
            << "; rejected claims: " << report.rejected_claims << '\n';
  std::cout << "money conservation: " << (before == after ? "exact" : "VIOLATED") << '\n';
  for (net::NodeId n = 1; n <= 3; ++n) {
    std::cout << "  node " << n << " balance: " << to_credits(bank.balance(acct[n]))
              << " credits\n";
  }
  return 0;
}
