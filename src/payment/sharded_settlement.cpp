#include "payment/sharded_settlement.hpp"

#include <algorithm>
#include <array>
#include <cassert>

namespace p2panon::payment {

crypto::u64 aggregated_claim_mac(crypto::u64 key, SettlementKey settlement,
                                 const AggregatedClaim& claim) noexcept {
  // One keyed MAC chain over the batch identity (settlement, claimant,
  // epoch, count) and every receipt's canonical words (receipt_words) and
  // MAC — reordering, dropping, or splicing a receipt changes the aggregate.
  crypto::u64 h = crypto::mac(key, {settlement, claim.claimant, claim.epoch,
                                    static_cast<crypto::u64>(claim.receipts.size())});
  for (const ForwardReceipt& r : claim.receipts) {
    h = crypto::mac_more(key, h, receipt_words(r));
    h = crypto::mac_more(key, h, std::array<crypto::u64, 1>{r.mac});
  }
  return h;
}

void seal_aggregated_claim(crypto::u64 key, SettlementKey settlement, AggregatedClaim& claim) {
  claim.aggregate_mac = 0;
  claim.aggregate_mac = aggregated_claim_mac(key, settlement, claim);
}

ShardedSettlementPlane::ShardedSettlementPlane(std::uint32_t partition_count,
                                               std::size_t node_count, Amount initial_balance,
                                               sim::rng::Stream stream)
    : stream_(stream), node_count_(node_count), initial_balance_(initial_balance) {
  assert(partition_count > 0);
  mac_keys_.reserve(node_count);
  for (std::size_t i = 0; i < node_count; ++i) {
    mac_keys_.push_back(stream_.child("mac-key", i).next_u64());
  }
  parts_.reserve(partition_count);
  for (std::uint32_t b = 0; b < partition_count; ++b) {
    auto part = std::make_unique<BankPartition>(stream_.child("bank", b));
    // Identical open order in every partition, so node i is account i
    // everywhere and the merged view can fold balances by account id.
    for (std::size_t i = 0; i < node_count; ++i) {
      const AccountId acct =
          part->bank.open_account(static_cast<net::NodeId>(i), initial_balance, mac_keys_[i]);
      assert(acct == static_cast<AccountId>(i));
      (void)acct;
    }
    part->initial_total = part->bank.total_money() + part->bank.outstanding_coin_value();
    parts_.push_back(std::move(part));
  }
}

std::uint32_t ShardedSettlementPlane::partition_of(SettlementKey key) const noexcept {
  return static_cast<std::uint32_t>(sim::rng::mix64(key) % parts_.size());
}

std::optional<SettlementHandle> ShardedSettlementPlane::open_settlement(
    SettlementKey key, net::PairId pair, net::NodeId initiator, Amount escrow_amount,
    SettlementTerms terms, const std::vector<PathRecord>& records, sim::Time deadline) {
  const std::uint32_t b = partition_of(key);
  BankPartition& part = *parts_[b];
  const AccountId acct = account_of(initiator);
  // The pair's first set settles here; a second open would be refused, so
  // refuse it before any coin moves.
  if (part.engine.has_nonce(settlement_nonce(pair))) return std::nullopt;
  // Wallet randomness keyed by the settlement, not by arrival order: the
  // coin blinding of settlement X is the same whether it funds first or
  // last, which keeps the plane's money flow order-invariant.
  Wallet wallet(part.bank, acct, stream_.child("wallet", key));
  std::optional<std::vector<Coin>> coins = wallet.withdraw(escrow_amount);
  if (!coins.has_value()) return std::nullopt;
  std::optional<EscrowId> escrow = part.bank.open_escrow(*coins);
  assert(escrow.has_value() && "freshly withdrawn coins must fund an escrow");
  if (!escrow.has_value()) return std::nullopt;
  const SettlementId id = part.engine.open(pair, *escrow, terms, records, acct, deadline);
  assert(id != kNoSettlement);
  return SettlementHandle{b, id, *escrow};
}

ClaimBatchOutcome ShardedSettlementPlane::submit_aggregated_claim(SettlementKey key,
                                                                  const SettlementHandle& handle,
                                                                  const AggregatedClaim& claim) {
  ++aggregates_;
  ClaimBatchOutcome out;
  BankPartition& part = *parts_[handle.partition];
  AggregatedClaim check = claim;
  check.aggregate_mac = 0;
  const crypto::u64 expected =
      aggregated_claim_mac(part.bank.account_mac_key(claim.claimant), key, check);
  if (expected != claim.aggregate_mac) {
    // Reject-all: a tampered batch never reaches the engine, so none of its
    // receipts can probe the settlement's hops.
    ++aggregates_refused_;
    out.aggregate_mac_ok = false;
    out.rejected = claim.receipts.size();
    return out;
  }
  receipts_batched_ += claim.receipts.size();
  const SettlementEngine::ClaimBatchResult r =
      part.engine.submit_claim_batch(handle.id, claim.claimant, claim.receipts);
  out.accepted = r.accepted;
  out.rejected = r.rejected;
  return out;
}

const SettlementReport& ShardedSettlementPlane::close_settlement(const SettlementHandle& handle) {
  return parts_[handle.partition]->engine.close(handle.id);
}

std::size_t ShardedSettlementPlane::expire_due(sim::Time now) {
  std::size_t terminalised = 0;
  for (auto& part : parts_) terminalised += part->engine.expire_due(now);
  return terminalised;
}

Amount ShardedSettlementPlane::merged_balance(AccountId account) const {
  Amount merged = initial_balance_;
  for (const auto& part : parts_) merged += part->bank.balance(account) - initial_balance_;
  return merged;
}

Amount ShardedSettlementPlane::total_money() const {
  Amount total = 0;
  for (const auto& part : parts_) {
    total += part->bank.total_money() + part->bank.outstanding_coin_value();
  }
  return total;
}

PlaneReconciliation ShardedSettlementPlane::reconcile() const {
  PlaneReconciliation rec;
  rec.partitions.reserve(parts_.size());

  Amount initial_sum = 0;
  std::vector<SettlementNonce> all_nonces;

  for (const auto& part_ptr : parts_) {
    const BankPartition& part = *part_ptr;
    const PartitionAudit audit =
        audit_settlements(part.bank, part.audit, part.engine, part.initial_total);

    rec.escrow_milli += audit.escrow_milli;
    rec.paid_milli += audit.paid_milli;
    rec.refunded_milli += audit.refunded_milli;
    rec.closed += audit.closed;
    rec.abandoned += audit.abandoned;
    rec.expired += audit.expired;
    rec.prorata += audit.prorata;
    rec.claims_accepted += part.engine.claims_accepted();
    rec.claims_rejected += part.engine.claims_rejected();
    rec.claims_after_terminal += part.engine.claims_after_terminal();
    initial_sum += part.initial_total;

    // Each engine opens a nonce at most once; collect every partition's
    // nonces for the global uniqueness merge.
    for (SettlementId id = 0; id < part.engine.settlement_count(); ++id) {
      all_nonces.push_back(part.engine.nonce(id));
    }

    rec.partitions.push_back(audit);
  }

  rec.global_conserved = total_money() == initial_sum;

  // Deterministic merge: a nonce opened by two partitions shows up as an
  // adjacent duplicate in the sorted union.
  std::sort(all_nonces.begin(), all_nonces.end());
  for (std::size_t i = 1; i < all_nonces.size(); ++i) {
    if (all_nonces[i] == all_nonces[i - 1]) ++rec.cross_partition_replays;
  }
  return rec;
}

}  // namespace p2panon::payment
