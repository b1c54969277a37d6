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
                                    AccountId refund_account, sim::Time deadline,
                                    std::uint32_t set_seq) {
  assert(terms.forwarding_benefit >= 0 && terms.routing_benefit >= 0);
  const SettlementNonce nonce = settlement_nonce(pair, set_seq);
  if (!nonces_.insert(sim::PackedKey{nonce}).second) return kNoSettlement;  // one per nonce
  Settlement s;
  s.nonce = nonce;
  s.escrow = escrow;
  s.terms = terms;
  s.refund_account = refund_account;
  s.deadline = deadline;

  std::size_t instances = 0;
  for (const PathRecord& rec : records) instances += rec.forwarders.size();
  s.hops.reserve(instances);
  s.hop_index.reserve(2 * instances);  // at most half full: short claim probes
  s.forwarders.reserve(instances);
  // node -> index into s.forwarders, for this build only.
  sim::PackedFlatMap<std::uint32_t> forwarder_index;
  forwarder_index.reserve(instances);
  std::vector<std::uint32_t> conns;
  conns.reserve(records.size());
  for (const PathRecord& rec : records) {
    conns.push_back(rec.conn_index);
    net::NodeId pred = rec.entry;
    for (std::size_t i = 0; i < rec.forwarders.size(); ++i) {
      const net::NodeId fwd = rec.forwarders[i];
      const net::NodeId succ = i + 1 < rec.forwarders.size() ? rec.forwarders[i + 1] : rec.exit;
      auto [forwarder, new_forwarder] = forwarder_index.insert(sim::PackedKey::of(fwd, 0));
      if (new_forwarder) {
        forwarder = static_cast<std::uint32_t>(s.forwarders.size());
        s.forwarders.push_back(ForwarderTally{fwd});
      }
      auto [hop, new_hop] = s.hop_index.insert(hop_key(fwd, rec.conn_index, pred, succ));
      if (new_hop) {
        hop = static_cast<std::uint32_t>(s.hops.size());
        s.hops.push_back(Hop{1, 0, forwarder});
      } else {
        ++s.hops[hop].multiplicity;  // a repeat of one hop
      }
      pred = fwd;
    }
  }
  s.set_size = s.forwarders.size();
  s.completed_connections = count_distinct(conns);

  const auto id = static_cast<SettlementId>(settlements_.size());
  settlements_.push_back(std::move(s));
  return id;
}

std::uint32_t SettlementEngine::next_set_seq(net::PairId pair) const {
  std::uint32_t seq = 0;
  while (has_nonce(settlement_nonce(pair, seq))) ++seq;
  return seq;
}

ClaimResult SettlementEngine::submit_claim(SettlementId id, AccountId claimant,
                                           const ForwardReceipt& receipt) {
  const crypto::u64 mac_key = bank_.account_mac_key(claimant);
  const net::NodeId claimant_owner = bank_.account_owner(claimant);
  if (id >= settlements_.size()) return ClaimResult::kUnknownSettlement;
  Settlement& s = settlements_[id];
  const auto reject = [&](ClaimResult verdict) {
    ++s.rejected;
    ++claims_rejected_;
    return verdict;
  };
  if (is_terminal(s.state)) {
    // First-wins: money already moved; a late or replayed claim must see a
    // hard terminal refusal, never a payout.
    ++claims_after_terminal_;
    return reject(ClaimResult::kNotOpen);
  }
  // The claimant must be the account bound to the forwarder named in the
  // receipt — you cannot redeem someone else's receipt, and a pseudonymous
  // account is bound to no forwarder. So one forwarder has one claimant.
  const bool right_claimant =
      claimant_owner == receipt.forwarder && claimant_owner != net::kInvalidNode;
  if (receipt.nonce() != s.nonce) {
    // Bound to another settlement; when an authentic receipt names this
    // pair, it is a sibling set's (a re-formed set settles under its own
    // nonce).
    if (receipt.pair == static_cast<net::PairId>(s.nonce) && right_claimant &&
        receipt_mac(mac_key, receipt) == receipt.mac) {
      ++cross_settlement_replays_;
    }
    return reject(ClaimResult::kUnknownSettlement);
  }
  if (!right_claimant) return reject(ClaimResult::kWrongClaimant);
  // MAC must verify under the claimant's registered key.
  if (receipt_mac(mac_key, receipt) != receipt.mac) return reject(ClaimResult::kBadMac);
  const std::uint32_t* index = s.hop_index.find(
      hop_key(receipt.forwarder, receipt.conn_index, receipt.predecessor, receipt.successor));
  if (index == nullptr) return reject(ClaimResult::kNotOnPath);  // over-claim
  Hop& hop = s.hops[*index];
  if (hop.used >= hop.multiplicity) {
    return reject(ClaimResult::kDuplicate);  // replay beyond the hop's multiplicity
  }
  ++hop.used;
  ForwarderTally& tally = s.forwarders[hop.forwarder];
  tally.claimant = claimant;
  ++tally.instances;
  ++s.accepted;
  ++claims_accepted_;
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
  report.pro_rata = outcome == SettlementState::kAbandoned && s.accepted > 0;

  // Routing benefit splits over the *recorded* forwarder-set size ||pi|| —
  // for an abandoned set that is the realized set of its completed
  // connections, so the pro-rata share is P_r / ||pi_realized||. Shares of
  // forwarders that never claimed are refunded to the initiator, never
  // redistributed (otherwise claimants would profit from suppressing other
  // nodes' claims).
  // The shares are split_evenly(P_r, ||pi||), taken in payout order. Every
  // payee is a recorded forwarder, so no more than ||pi|| shares are
  // handed out.
  const EvenSplit routing_shares = even_split(s.terms.routing_benefit, s.set_size);

  // Payout order: ascending account id. The paid tallies move to the front
  // and sort there (the tallies are released below).
  const auto paid_end = std::remove_if(s.forwarders.begin(), s.forwarders.end(),
                                       [](const ForwarderTally& f) { return f.instances == 0; });
  std::sort(s.forwarders.begin(), paid_end, [](const ForwarderTally& a, const ForwarderTally& b) {
    return a.claimant < b.claimant;
  });
  report.payouts.reserve(static_cast<std::size_t>(paid_end - s.forwarders.begin()));
  std::size_t share_idx = 0;
  for (auto f = s.forwarders.begin(); f != paid_end; ++f) {
    const auto m = static_cast<Amount>(f->instances);
    const Amount due = m * s.terms.forwarding_benefit + routing_shares.share(share_idx++);
    const bool ok = bank_.escrow_pay(s.escrow, f->claimant, due);
    assert(ok && "escrow underfunded for verified claims");
    if (ok) {
      report.paid_out += due;
      report.payouts.emplace_back(f->claimant, due);
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
  // No claim reaches a terminal settlement's hops again.
  s.hops = std::vector<Hop>{};
  s.hop_index = sim::PackedFlatMap<std::uint32_t>{};
  s.forwarders = std::vector<ForwarderTally>{};
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
  return finalize(id, s.accepted == 0 ? SettlementState::kExpired
                                      : SettlementState::kAbandoned);
}

std::size_t SettlementEngine::expire_due(sim::Time now) {
  std::size_t terminalised = 0;
  for (SettlementId id = 0; id < settlements_.size(); ++id) {
    Settlement& s = settlements_[id];
    if (is_terminal(s.state)) continue;  // first-wins
    if (s.deadline < 0.0 || now < s.deadline) continue;
    finalize(id, s.accepted == 0 ? SettlementState::kExpired
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
