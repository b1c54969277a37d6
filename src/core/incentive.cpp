#include "core/incentive.hpp"

#include <cassert>

#include "sim/rng.hpp"

namespace p2panon::core {

void PayoffLedger::charge_participation(const net::Overlay& overlay, net::NodeId id) {
  NodeLedger& l = ledgers_.at(id);
  if (!l.participated) {
    l.participated = true;
    l.cost += overlay.state().participation_cost[id];
  }
}

void PayoffLedger::charge_transmission(const net::Overlay& overlay, net::NodeId from,
                                       net::NodeId to) {
  NodeLedger& l = ledgers_.at(from);
  l.cost += overlay.links().transmission_cost(from, to);
  ++l.forwarding_instances;
}

metrics::Accumulator PayoffLedger::good_node_payoffs(const net::Overlay& overlay) const {
  metrics::Accumulator acc;
  for (net::NodeId id = 0; id < ledgers_.size(); ++id) {
    if (overlay.state().is_good(id)) acc.add(ledgers_[id].payoff());
  }
  return acc;
}

std::vector<double> PayoffLedger::good_node_payoff_samples(const net::Overlay& overlay) const {
  std::vector<double> out;
  out.reserve(ledgers_.size());
  for (net::NodeId id = 0; id < ledgers_.size(); ++id) {
    if (overlay.state().is_good(id)) out.push_back(ledgers_[id].payoff());
  }
  return out;
}

const BuiltPath& ConnectionSetSession::run_connection(const PathBuilder& builder,
                                                      HistoryStore& history,
                                                      const StrategyAssignment& strategies,
                                                      PayoffLedger& ledger,
                                                      const net::Overlay& overlay,
                                                      sim::rng::Stream& stream,
                                                      const AdversaryModel& adversary) {
  assert(!settled_ && "connection after settlement");
  const auto conn_index = static_cast<std::uint32_t>(paths_.size() + 1);
  auto conn_stream = stream.child("conn", conn_index);

  BuiltPath path;
  for (std::uint32_t attempt = 0;; ++attempt) {
    auto attempt_stream = conn_stream.child("attempt", attempt);
    path = builder.build(pair_, conn_index, initiator_, responder_, contract_, strategies,
                         attempt_stream);
    if (adversary.drop_probability <= 0.0 || attempt >= kMaxDropReformations) break;

    // A malicious forwarder may drop the payload; forwarders upstream of the
    // dropper already spent transmission effort, and the path must reform.
    auto drop_stream = attempt_stream.child("drop");
    bool dropped = false;
    for (std::size_t i = 1; i + 1 < path.nodes.size(); ++i) {
      const net::NodeId fwd = path.nodes[i];
      if (!overlay.state().is_malicious(fwd)) continue;
      if (!drop_stream.bernoulli(adversary.drop_probability)) continue;
      for (std::size_t u = 1; u < i; ++u) {  // upstream forwarders paid the cost
        ledger.charge_participation(overlay, path.nodes[u]);
        ledger.charge_transmission(overlay, path.nodes[u], path.nodes[u + 1]);
      }
      ++reformations_;
      dropped = true;
      break;
    }
    if (!dropped) break;
  }

  return adopt_connection(std::move(path), history, ledger, overlay);
}

const BuiltPath& ConnectionSetSession::adopt_connection(BuiltPath path, HistoryStore& history,
                                                        PayoffLedger& ledger,
                                                        const net::Overlay& overlay) {
  assert(!settled_ && "connection after settlement");

  // Reverse-path confirmation: the initiator recreates the path and every
  // forwarder records its history entry under the set's pair.
  history.record_path(pair_, path.nodes);

  // Costs: every forwarder pays C_p once and C_t per instance; the
  // initiator's transmission of the first hop is part of its own spend, not
  // a forwarder cost.
  std::size_t new_edges = 0;
  std::size_t edges = 0;
  for (std::size_t i = 0; i + 1 < path.nodes.size(); ++i) {
    const net::NodeId from = path.nodes[i];
    const net::NodeId to = path.nodes[i + 1];
    if (i > 0) {  // `from` is a forwarder
      ledger.charge_participation(overlay, from);
      ledger.charge_transmission(overlay, from, to);
      insert_sorted(forwarder_set_, from);
    }
    ++edges;
    if (insert_sorted(seen_edges_, std::uint64_t{from} << 32 | to)) ++new_edges;
  }
  new_edge_fraction_.push_back(edges > 0 ? static_cast<double>(new_edges) /
                                               static_cast<double>(edges)
                                         : 0.0);

  paths_.push_back(std::move(path));
  return paths_.back();
}

double ConnectionSetSession::average_path_length() const noexcept {
  if (paths_.empty()) return 0.0;
  std::size_t total = 0;
  for (const BuiltPath& p : paths_) total += p.forwarder_count();
  return static_cast<double>(total) / static_cast<double>(paths_.size());
}

double ConnectionSetSession::path_quality() const noexcept {
  if (forwarder_set_.empty()) return 0.0;
  return average_path_length() / static_cast<double>(forwarder_set_.size());
}

void ConnectionSetSession::mark_completed(std::uint32_t conn_index) {
  assert(track_completion_ && "completion marks require tracking mode");
  assert(conn_index >= 1 && conn_index <= paths_.size());
  if (completed_.size() < paths_.size()) completed_.resize(paths_.size(), false);
  completed_[conn_index - 1] = true;
}

std::size_t ConnectionSetSession::completed_connections() const noexcept {
  if (!track_completion_) return paths_.size();
  std::size_t n = 0;
  for (std::size_t j = 0; j < completed_.size(); ++j) {
    if (completed_[j]) ++n;
  }
  return n;
}

PreparedSettlement ConnectionSetSession::open_settlement(payment::Bank& bank,
                                                         payment::SettlementEngine& engine,
                                                         sim::rng::Stream& stream,
                                                         sim::Time deadline) {
  assert(!settled_ && "double settle");
  settled_ = true;

  // --- Initiator side: the committed total covers every adopted path — the
  // escrow was committed before any outcome was known — while the records
  // submitted to the bank cover only the connections whose completion the
  // reverse-path receipts confirmed. A dead connection is thereby *excluded*
  // from the claimable set instead of over-claimed against.
  std::size_t total_instances = 0;
  std::vector<payment::PathRecord> records;
  records.reserve(paths_.size());
  for (std::uint32_t j = 0; j < paths_.size(); ++j) {
    const BuiltPath& p = paths_[j];
    total_instances += p.forwarder_count();
    if (track_completion_ && (j >= completed_.size() || !completed_[j])) continue;
    payment::PathRecord rec;
    rec.conn_index = j + 1;
    rec.entry = p.initiator();
    rec.exit = p.responder();
    rec.forwarders.assign(p.nodes.begin() + 1, p.nodes.end() - 1);
    records.push_back(std::move(rec));
  }

  const payment::Amount p_f = payment::from_credits(contract_.forwarding_benefit);
  const payment::Amount p_r = payment::from_credits(contract_.routing_benefit());
  const payment::Amount committed =
      static_cast<payment::Amount>(total_instances) * p_f + p_r;

  const payment::AccountId init_acct = bank.account_of(initiator_);
  assert(init_acct != payment::kInvalidAccount && "initiator has no bank account");
  auto wallet_stream = stream.child("wallet", pair_);
  payment::Wallet wallet(bank, init_acct, wallet_stream);
  auto coins = wallet.withdraw(committed);
  assert(coins.has_value() && "initiator cannot fund its commitment");

  auto escrow = bank.open_escrow(*coins);
  assert(escrow.has_value());

  const payment::AccountId refund_acct = bank.open_pseudonymous_account();
  payment::SettlementTerms terms{p_f, p_r};

  // The set's nonce: the first sequence of the pair this engine has not
  // settled, so a re-formed set of the same pair binds its receipts to its
  // own settlement.
  const std::uint32_t set_seq = engine.next_set_seq(pair_);
  PreparedSettlement prep;
  prep.claims.reserve(total_instances);
  prep.sid = engine.open(pair_, *escrow, terms, records, refund_acct, deadline, set_seq);
  assert(prep.sid != payment::kNoSettlement);
  prep.escrow_in = committed;

  // --- Forwarder side: every forwarder holds one MAC'd receipt per
  // forwarding instance (assembled from the reverse-path confirmation) —
  // including instances on connections that later died; the bank's records
  // are what decides whether such a claim verifies.
  for (std::uint32_t j = 0; j < paths_.size(); ++j) {
    const BuiltPath& p = paths_[j];
    for (std::size_t i = 1; i + 1 < p.nodes.size(); ++i) {
      const net::NodeId fwd = p.nodes[i];
      const payment::AccountId acct = bank.account_of(fwd);
      assert(acct != payment::kInvalidAccount);
      prep.claims.push_back(ClaimSubmission{
          acct, payment::make_receipt(bank.account_mac_key(acct), pair_, j + 1, fwd,
                                      p.nodes[i - 1], p.nodes[i + 1], set_seq)});
    }
  }
  return prep;
}

SettleOutcome ConnectionSetSession::finalize_settlement(const payment::Bank& bank,
                                                        const payment::SettlementEngine& engine,
                                                        PayoffLedger& ledger,
                                                        payment::SettlementId sid) const {
  const payment::SettlementReport* report = engine.report(sid);
  assert(report != nullptr && "finalize before the settlement terminalised");

  // --- Credit ledgers from the authoritative bank payouts.
  for (const auto& [acct, amount] : report->payouts) {
    const net::NodeId owner = bank.account_owner(acct);
    if (owner != net::kInvalidNode) ledger.credit(owner, payment::to_credits(amount));
  }

  SettleOutcome out;
  out.report = *report;
  out.forwarder_set_size = forwarder_set_.size();
  out.initiator_spend = payment::to_credits(report->escrow_in - report->refunded);
  return out;
}

SettleOutcome ConnectionSetSession::settle(payment::Bank& bank,
                                           payment::SettlementEngine& engine,
                                           PayoffLedger& ledger, sim::rng::Stream& stream) {
  const PreparedSettlement prep =
      open_settlement(bank, engine, stream, payment::kNoSettlementDeadline);

  for (const ClaimSubmission& claim : prep.claims) {
    [[maybe_unused]] const auto res = engine.submit_claim(prep.sid, claim.claimant, claim.receipt);
    // With completion tracking off every record is on file, so every honest
    // claim must verify; with tracking on, claims for dead connections are
    // expected to bounce off the records (kNotOnPath).
    assert(track_completion_ || res == payment::ClaimResult::kAccepted);
  }

  engine.close(prep.sid);
  return finalize_settlement(bank, engine, ledger, prep.sid);
}

}  // namespace p2panon::core
