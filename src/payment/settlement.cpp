#include "payment/settlement.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <utility>

namespace p2panon::payment {

namespace {

/// Number of distinct values in `values` (sorts it).
template <class T>
std::size_t count_distinct(std::vector<T>& values) {
  std::sort(values.begin(), values.end());
  return static_cast<std::size_t>(std::unique(values.begin(), values.end()) - values.begin());
}

}  // namespace

SettlementId SettlementEngine::open(net::PairId pair, EscrowId escrow, SettlementTerms terms,
                                    const std::vector<PathRecord>& records,
                                    AccountId refund_account, sim::Time deadline) {
  assert(terms.forwarding_benefit >= 0 && terms.routing_benefit >= 0);
  Settlement s;
  s.pair = pair;
  s.escrow = escrow;
  s.terms = terms;
  s.refund_account = refund_account;
  s.deadline = deadline;

  std::size_t instances = 0;
  for (const PathRecord& rec : records) instances += rec.forwarders.size();
  std::vector<net::NodeId> forwarders;
  std::vector<std::uint32_t> conns;
  forwarders.reserve(instances);
  conns.reserve(records.size());
  s.hops.reserve(instances);
  for (const PathRecord& rec : records) {
    conns.push_back(rec.conn_index);
    net::NodeId pred = rec.entry;
    for (std::size_t i = 0; i < rec.forwarders.size(); ++i) {
      const net::NodeId fwd = rec.forwarders[i];
      const net::NodeId succ = i + 1 < rec.forwarders.size() ? rec.forwarders[i + 1] : rec.exit;
      s.hops.push_back(Hop{HopKey{rec.conn_index, fwd, pred, succ}, 1, 0});
      forwarders.push_back(fwd);
      pred = fwd;
    }
  }
  // Sort, then merge repeats of one hop into its multiplicity.
  std::sort(s.hops.begin(), s.hops.end(),
            [](const Hop& a, const Hop& b) { return a.key < b.key; });
  std::size_t merged = 0;
  for (const Hop& hop : s.hops) {
    if (merged > 0 && s.hops[merged - 1].key == hop.key) {
      ++s.hops[merged - 1].multiplicity;
    } else {
      s.hops[merged++] = hop;
    }
  }
  s.hops.resize(merged);
  s.set_size = count_distinct(forwarders);
  s.completed_connections = count_distinct(conns);

  const auto id = static_cast<SettlementId>(settlements_.size());
  settlements_.push_back(std::move(s));
  return id;
}

ClaimResult SettlementEngine::submit_claim(SettlementId id, AccountId claimant,
                                           const ForwardReceipt& receipt) {
  const crypto::u64 mac_key = bank_.account_mac_key(claimant);
  const net::NodeId claimant_owner = bank_.account_owner(claimant);
  if (id >= settlements_.size()) return ClaimResult::kUnknownSettlement;
  Settlement& s = settlements_[id];
  if (is_terminal(s.state)) {
    // First-wins: money already moved; a late or replayed claim must see a
    // hard terminal refusal, never a payout.
    ++s.rejected;
    ++claims_rejected_;
    ++claims_after_terminal_;
    return ClaimResult::kNotOpen;
  }
  if (receipt.pair != s.pair) {
    ++s.rejected;
    ++claims_rejected_;
    return ClaimResult::kUnknownSettlement;
  }
  // The claimant must be the account bound to the forwarder named in the
  // receipt — you cannot redeem someone else's receipt.
  if (claimant_owner != receipt.forwarder) {
    ++s.rejected;
    ++claims_rejected_;
    return ClaimResult::kWrongClaimant;
  }
  // MAC must verify under the claimant's registered key.
  ForwardReceipt unsealed = receipt;
  unsealed.mac = 0;
  if (receipt_mac(mac_key, unsealed) != receipt.mac) {
    ++s.rejected;
    ++claims_rejected_;
    return ClaimResult::kBadMac;
  }
  const HopKey key{receipt.conn_index, receipt.forwarder, receipt.predecessor,
                   receipt.successor};
  const auto hop = std::lower_bound(s.hops.begin(), s.hops.end(), key,
                                    [](const Hop& h, const HopKey& k) { return h.key < k; });
  if (hop == s.hops.end() || hop->key != key) {
    ++s.rejected;
    ++claims_rejected_;
    return ClaimResult::kNotOnPath;  // over-claim
  }
  // A re-formed set settles under a fresh settlement with the same pair id;
  // a receipt already redeemed under a sibling settlement is a replay even
  // though this settlement has never seen it.
  RedeemedSlot& redeemed = redeemed_slot(receipt.mac);
  if (redeemed.settlement != kNoSettlement && redeemed.settlement != id) {
    ++s.rejected;
    ++claims_rejected_;
    ++cross_settlement_replays_;
    return ClaimResult::kDuplicate;
  }
  if (hop->used >= hop->multiplicity) {
    ++s.rejected;
    ++claims_rejected_;
    return ClaimResult::kDuplicate;  // replay beyond the hop's multiplicity
  }
  ++hop->used;
  auto entry = std::lower_bound(
      s.claimants.begin(), s.claimants.end(), claimant,
      [](const ClaimantInstances& c, AccountId account) { return c.account < account; });
  if (entry == s.claimants.end() || entry->account != claimant) {
    entry = s.claimants.insert(entry, ClaimantInstances{claimant, 0});
  }
  ++entry->instances;
  ++claims_accepted_;
  if (redeemed.settlement == kNoSettlement) {
    redeemed = RedeemedSlot{receipt.mac, id};
    ++redeemed_count_;
  }
  if (s.state == SettlementState::kOpen) s.state = SettlementState::kClaiming;
  return ClaimResult::kAccepted;
}

SettlementEngine::ClaimBatchResult SettlementEngine::submit_claim_batch(
    SettlementId id, AccountId claimant, std::span<const ForwardReceipt> receipts) {
  ClaimBatchResult out;
  for (const ForwardReceipt& receipt : receipts) {
    if (submit_claim(id, claimant, receipt) == ClaimResult::kAccepted) {
      ++out.accepted;
    } else {
      ++out.rejected;
    }
  }
  return out;
}

SettlementEngine::RedeemedSlot& SettlementEngine::redeemed_slot(crypto::u64 mac) {
  const auto probe = [this](crypto::u64 key) -> RedeemedSlot& {
    const std::size_t mask = redeemed_.size() - 1;
    // Fibonacci hashing: the multiply carries every low bit of the digest
    // upward, and the bits from 32 up pick the home slot.
    for (std::size_t i = static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> 32) & mask;;
         i = (i + 1) & mask) {
      RedeemedSlot& slot = redeemed_[i];
      if (slot.settlement == kNoSettlement || slot.mac == key) return slot;
    }
  };
  if ((redeemed_count_ + 1) * 4 > redeemed_.size() * 3) {
    std::vector<RedeemedSlot> old = std::exchange(
        redeemed_, std::vector<RedeemedSlot>(std::max<std::size_t>(64, 2 * redeemed_.size())));
    for (const RedeemedSlot& slot : old) {
      if (slot.settlement != kNoSettlement) probe(slot.mac) = slot;
    }
  }
  return probe(mac);
}

const SettlementReport& SettlementEngine::finalize(SettlementId id, SettlementState outcome) {
  Settlement& s = settlements_[id];
  assert(!is_terminal(s.state) && "finalize on a terminal settlement");
  assert(is_terminal(outcome));

  SettlementReport report;
  report.escrow_in = bank_.escrow_balance(s.escrow);
  report.forwarder_set_size = s.set_size;
  report.rejected_claims = s.rejected;
  report.outcome = outcome;
  report.completed_connections = s.completed_connections;
  report.pro_rata = outcome == SettlementState::kAbandoned && !s.claimants.empty();

  // Routing benefit splits over the *recorded* forwarder-set size ||pi|| —
  // for an abandoned set that is the realized set of its completed
  // connections, so the pro-rata share is P_r / ||pi_realized||. Shares of
  // forwarders that never claimed are refunded to the initiator, never
  // redistributed (otherwise claimants would profit from suppressing other
  // nodes' claims).
  const std::vector<Amount> shares =
      s.set_size > 0 ? split_evenly(s.terms.routing_benefit, s.set_size) : std::vector<Amount>{};

  // Payout order: ascending account id, the order claimants is kept in.
  report.payouts.reserve(s.claimants.size());
  std::size_t share_idx = 0;
  for (const auto& [acct, instances] : s.claimants) {
    const auto m = static_cast<Amount>(instances);
    Amount due = m * s.terms.forwarding_benefit;
    if (share_idx < shares.size()) due += shares[share_idx++];
    const bool ok = bank_.escrow_pay(s.escrow, acct, due);
    assert(ok && "escrow underfunded for verified claims");
    if (ok) {
      report.paid_out += due;
      report.payouts.emplace_back(acct, due);
      report.accepted_claims += static_cast<std::size_t>(m);
    }
  }

  const Amount leftover = bank_.escrow_balance(s.escrow);
  if (leftover > 0) {
    const bool ok = bank_.escrow_refund(s.escrow, s.refund_account, leftover);
    assert(ok);
    if (ok) report.refunded = leftover;
  }

  s.state = outcome;
  s.report = std::move(report);
  return *s.report;
}

const SettlementReport& SettlementEngine::close(SettlementId id) {
  Settlement& s = settlements_.at(id);
  if (is_terminal(s.state)) return *s.report;  // first-wins
  return finalize(id, SettlementState::kClosed);
}

const SettlementReport& SettlementEngine::abandon(SettlementId id) {
  Settlement& s = settlements_.at(id);
  if (is_terminal(s.state)) return *s.report;  // first-wins
  return finalize(id, s.claimants.empty() ? SettlementState::kExpired
                                          : SettlementState::kAbandoned);
}

std::size_t SettlementEngine::expire_due(sim::Time now) {
  std::size_t terminalised = 0;
  for (SettlementId id = 0; id < settlements_.size(); ++id) {
    Settlement& s = settlements_[id];
    if (is_terminal(s.state)) continue;  // first-wins
    if (s.deadline < 0.0 || now < s.deadline) continue;
    finalize(id, s.claimants.empty() ? SettlementState::kExpired
                                      : SettlementState::kAbandoned);
    ++terminalised;
  }
  return terminalised;
}

SettlementState SettlementEngine::state(SettlementId id) const {
  return settlements_.at(id).state;
}

sim::Time SettlementEngine::deadline(SettlementId id) const {
  return settlements_.at(id).deadline;
}

bool SettlementEngine::is_closed(SettlementId id) const {
  return settlements_.at(id).report.has_value();
}

const SettlementReport* SettlementEngine::report(SettlementId id) const {
  const Settlement& s = settlements_.at(id);
  return s.report.has_value() ? &*s.report : nullptr;
}

std::size_t SettlementEngine::open_settlements() const noexcept {
  std::size_t n = 0;
  for (const Settlement& s : settlements_) {
    if (!s.report.has_value()) ++n;
  }
  return n;
}

std::size_t SettlementEngine::forwarder_set_size(SettlementId id) const {
  return settlements_.at(id).set_size;
}

std::vector<crypto::u64> SettlementEngine::redeemed_macs() const {
  std::vector<crypto::u64> macs;
  macs.reserve(redeemed_count_);
  for (const RedeemedSlot& slot : redeemed_) {
    if (slot.settlement != kNoSettlement) macs.push_back(slot.mac);
  }
  std::sort(macs.begin(), macs.end());
  return macs;
}

PartitionAudit audit_settlements(const Bank& bank, const AuditLog& journal,
                                 const SettlementEngine& engine, Amount initial_total) {
  PartitionAudit audit;
  audit.conserved = bank.total_money() + bank.outstanding_coin_value() == initial_total;

  // C2, C3 (per report), C5, and the report-side totals.
  std::map<AccountId, Amount> report_payouts;
  audit.all_terminal = true;
  audit.escrows_drained = true;
  audit.expired_refunded = true;
  for (SettlementId id = 0; id < engine.settlement_count(); ++id) {
    const SettlementReport* report = engine.report(id);
    if (report == nullptr) {
      audit.all_terminal = false;
      continue;
    }
    if (report->escrow_in != report->paid_out + report->refunded) audit.escrows_drained = false;
    switch (report->outcome) {
      case SettlementState::kClosed:
        ++audit.closed;
        break;
      case SettlementState::kAbandoned:
        ++audit.abandoned;
        break;
      case SettlementState::kExpired:
        ++audit.expired;
        if (report->paid_out != 0 || report->refunded != report->escrow_in) {
          audit.expired_refunded = false;
        }
        break;
      default:
        audit.all_terminal = false;
        break;
    }
    if (report->pro_rata) ++audit.prorata;
    audit.escrow_milli += report->escrow_in;
    audit.paid_milli += report->paid_out;
    audit.refunded_milli += report->refunded;
    for (const auto& [acct, paid] : report->payouts) report_payouts[acct] += paid;
  }

  // The journal's side of the same money flows.
  std::map<AccountId, Amount> journal_payouts;
  Amount journal_funded = 0;
  Amount journal_paid = 0;
  Amount journal_refunded = 0;
  for (const Transaction& tx : journal.transactions()) {
    switch (tx.kind) {
      case TxKind::kEscrowFund:
        journal_funded += tx.amount;
        break;
      case TxKind::kEscrowPay:
        journal_payouts[tx.account] += tx.amount;
        journal_paid += tx.amount;
        break;
      case TxKind::kEscrowRefund:
        journal_refunded += tx.amount;
        break;
      default:
        break;
    }
  }

  // C3 on the bank side: terminal settlements leave nothing in escrow. The
  // check is vacuous while settlements remain open (C2 already failed).
  if (audit.all_terminal) {
    for (EscrowId e = 0; e < bank.escrow_count(); ++e) {
      if (bank.escrow_balance(e) != 0) audit.escrows_drained = false;
    }
    if (journal_funded != audit.paid_milli + audit.refunded_milli) audit.escrows_drained = false;
  }

  // C4: replaying the journal from an empty bank lands on the bank's exact
  // balances, and the journal's payouts and refunds are the reports'.
  ReplayState replayed;
  audit.replay_ok = journal.replay(replayed) &&
                    replayed.accounts.size() == bank.account_count() &&
                    replayed.escrows.size() == bank.escrow_count() &&
                    replayed.outstanding == bank.outstanding_coin_value();
  for (AccountId a = 0; audit.replay_ok && a < replayed.accounts.size(); ++a) {
    audit.replay_ok = replayed.accounts[a] == bank.balance(a);
  }
  for (EscrowId e = 0; audit.replay_ok && e < replayed.escrows.size(); ++e) {
    audit.replay_ok = replayed.escrows[e] == bank.escrow_balance(e);
  }
  audit.payouts_match = journal_payouts == report_payouts && journal_paid == audit.paid_milli &&
                        journal_refunded == audit.refunded_milli;
  return audit;
}

}  // namespace p2panon::payment
