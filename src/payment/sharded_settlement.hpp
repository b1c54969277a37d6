// Sharded settlement plane: the bank partitioned for throughput.
//
// At millions of users one SettlementEngine serialises everything behind a
// single nonce ledger and one audit journal. This plane shards the
// payment substrate by *settlement*: every logical settlement carries a
// 64-bit SettlementKey, and mix(key) % B routes it to one of B independent
// bank partitions. Each partition is a full vertical slice — its own Bank,
// its own SettlementEngine (the PR 5 escrow lifecycle state machine,
// unchanged), its own nonce ledger, its own append-only audit journal —
// so partitions never share mutable state and the barrier-batch hook can
// drain per-shard op buffers against them without locks.
//
// Money model: every partition opens the *same* account universe (node i is
// account i in every partition, same MAC key) with the full initial
// balance, so escrow funding, payouts and refunds of a settlement stay
// entirely inside its own partition — there is no cross-partition transfer
// to order or lock. Each partition is an independent money universe with
// its own exact conservation invariant
//
//     total_money() + outstanding_coin_value() == initial_total
//
// and the merged global view folds per-partition deltas:
//
//     merged_balance(a) = initial + sum_b (balance_b(a) - initial).
//
// Global conservation is then the sum of the per-partition invariants, and
// both are asserted (per bank shard AND globally) by examples/
// chaos_settlement and the reconciliation pass below.
//
// Claims arrive as forwarder-epoch *aggregates* (Ersoy et al.'s
// transaction-batching idea): all receipts one forwarder accrued for one
// settlement during one view-refresh epoch travel as a single
// AggregatedClaim under one aggregate MAC. The partition engine then
// redeems the aggregate's receipts in order through
// SettlementEngine::submit_claim_batch.
//
// Replay safety across partitions: a receipt is bound to its settlement's
// nonce, and routing by settlement key puts that settlement on one
// partition, whose engine pays each recorded hop at most its multiplicity
// and refuses a second open of the nonce. A settlement smuggled onto a
// *different* partition (bypassing the routed entry points — see lint rule
// R8) is outside any single engine's view; the deterministic merge
// reconciliation catches it by asserting that no nonce opened a settlement
// on two partitions (tests/payment/test_sharded_settlement.cpp pins the
// negative path).
//
// Mutation discipline (lint rule R8, tools/lint/check_invariants.py):
// model/bench code must mutate partitions only through the plane's routed
// entry points (open_settlement / submit_aggregated_claim /
// close_settlement / expire_due), which the harness drives from the
// serial window-barrier hook. Direct partition(b).engine/bank mutation
// bypasses the routing + the batched verification and needs an explicit
// bank-partition waiver comment naming its reason.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "payment/settlement.hpp"
#include "sim/rng.hpp"

namespace p2panon::payment {

/// Identifies one logical settlement across the plane; mix(key) % B picks
/// the owning bank partition. Callers derive it from stable model identity
/// (e.g. the pair id), never from arrival order.
using SettlementKey = std::uint64_t;

/// One bank partition: a complete, independent payment universe.
struct BankPartition {
  Bank bank;
  AuditLog audit;
  SettlementEngine engine;
  /// Money in this universe right after account creation — the base of the
  /// per-partition conservation invariant.
  Amount initial_total = 0;

  explicit BankPartition(sim::rng::Stream stream) : bank(std::move(stream)), engine(bank) {
    bank.attach_audit(&audit);
  }
};

/// Where a routed settlement lives.
struct SettlementHandle {
  std::uint32_t partition = 0;
  SettlementId id = 0;
  EscrowId escrow = 0;
};

/// All receipts one forwarder accrued for one settlement during one epoch,
/// authenticated as a unit: the aggregate MAC covers the settlement key,
/// the claimant, the epoch, and every receipt field including the
/// per-receipt MACs, so the whole batch is accepted or audited as one.
struct AggregatedClaim {
  AccountId claimant = kInvalidAccount;
  std::uint32_t epoch = 0;
  std::vector<ForwardReceipt> receipts;
  crypto::u64 aggregate_mac = 0;
};

/// Aggregate MAC over the batch under the forwarder's registered key.
[[nodiscard]] crypto::u64 aggregated_claim_mac(crypto::u64 key, SettlementKey settlement,
                                               const AggregatedClaim& claim) noexcept;

/// Seal `claim` (computes and stores its aggregate MAC).
void seal_aggregated_claim(crypto::u64 key, SettlementKey settlement, AggregatedClaim& claim);

struct ClaimBatchOutcome {
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  /// False when the aggregate MAC failed — the whole batch was refused
  /// before any receipt touched the engine.
  bool aggregate_mac_ok = true;
};

/// Outcome of the deterministic merge pass after the final barrier.
struct PlaneReconciliation {
  /// audit_settlements() of each partition, ascending partition order.
  std::vector<PartitionAudit> partitions;
  bool global_conserved = false;  ///< sum of merged balances + escrows + coins unchanged
  /// Settlement nonces opened on more than one partition — a receipt bound
  /// to one could be redeemed on each. Zero on any honest run.
  std::uint64_t cross_partition_replays = 0;
  Amount escrow_milli = 0;
  Amount paid_milli = 0;
  Amount refunded_milli = 0;
  std::uint64_t closed = 0;
  std::uint64_t abandoned = 0;
  std::uint64_t expired = 0;
  std::uint64_t prorata = 0;
  std::uint64_t claims_accepted = 0;
  std::uint64_t claims_rejected = 0;
  std::uint64_t claims_after_terminal = 0;

  [[nodiscard]] bool ok() const noexcept {
    if (!global_conserved || cross_partition_replays != 0) return false;
    for (const PartitionAudit& p : partitions) {
      if (!p.ok()) return false;
    }
    return true;
  }
};

class ShardedSettlementPlane {
 public:
  /// B partitions, each opening the full `node_count` account universe with
  /// `initial_balance` per account. Node i's MAC key is a keyed child draw
  /// (identical in every partition); partition b's bank draws from its own
  /// child stream.
  ShardedSettlementPlane(std::uint32_t partition_count, std::size_t node_count,
                         Amount initial_balance, sim::rng::Stream stream);

  ShardedSettlementPlane(const ShardedSettlementPlane&) = delete;
  ShardedSettlementPlane& operator=(const ShardedSettlementPlane&) = delete;

  [[nodiscard]] std::uint32_t partition_count() const noexcept {
    return static_cast<std::uint32_t>(parts_.size());
  }
  [[nodiscard]] std::uint32_t partition_of(SettlementKey key) const noexcept;

  /// Node i is account i in every partition.
  [[nodiscard]] AccountId account_of(net::NodeId node) const noexcept {
    return static_cast<AccountId>(node);
  }
  [[nodiscard]] crypto::u64 mac_key_of(net::NodeId node) const { return mac_keys_[node]; }

  // --- Routed entry points (the only legal mutation path from model code;
  // --- the harness drives them from the serial window-barrier hook).

  /// Fund an escrow of `escrow_amount` from the initiator's account in the
  /// owning partition (blind withdrawal keyed by the settlement key, so coin
  /// blinding is independent of arrival order) and open the settlement
  /// against it under the pair's first nonce. Returns nullopt on
  /// insufficient funds, or when that nonce already settled here.
  std::optional<SettlementHandle> open_settlement(SettlementKey key, net::PairId pair,
                                                  net::NodeId initiator, Amount escrow_amount,
                                                  SettlementTerms terms,
                                                  const std::vector<PathRecord>& records,
                                                  sim::Time deadline = kNoSettlementDeadline);

  /// Verify the aggregate MAC under the claimant's registered key; on
  /// success feed the receipts through the engine's batched claim path. A
  /// failed aggregate MAC refuses the whole batch without touching the
  /// engine.
  ClaimBatchOutcome submit_aggregated_claim(SettlementKey key, const SettlementHandle& handle,
                                            const AggregatedClaim& claim);

  /// First-wins close via the owning partition's engine.
  const SettlementReport& close_settlement(const SettlementHandle& handle);

  /// Deadline sweep over every partition, ascending. Returns settlements
  /// terminalised.
  std::size_t expire_due(sim::Time now);

  // --- Read-only views (safe anywhere; no R8 waiver needed).

  [[nodiscard]] const BankPartition& partition_view(std::uint32_t b) const { return *parts_[b]; }
  /// Mutable partition access — the R8 escape hatch for tests and the
  /// reconciliation tooling; model/bench code must not mutate through it.
  [[nodiscard]] BankPartition& partition(std::uint32_t b) { return *parts_[b]; }

  /// initial + sum over partitions of (balance_b - initial).
  [[nodiscard]] Amount merged_balance(AccountId account) const;

  /// Money across all partitions (accounts + escrows + outstanding coins);
  /// conservation compares it against partition_count * per-universe initial.
  [[nodiscard]] Amount total_money() const;

  // Plane-level counters (aggregate claim traffic).
  [[nodiscard]] std::uint64_t aggregates_submitted() const noexcept { return aggregates_; }
  [[nodiscard]] std::uint64_t aggregates_refused() const noexcept { return aggregates_refused_; }
  [[nodiscard]] std::uint64_t receipts_batched() const noexcept { return receipts_batched_; }

  /// The deterministic merge pass: the C1–C5 audit (audit_settlements) per
  /// partition in ascending order, then the global fold (merged
  /// conservation, cross-partition nonce uniqueness). Pure read-only.
  [[nodiscard]] PlaneReconciliation reconcile() const;

 private:
  std::vector<std::unique_ptr<BankPartition>> parts_;
  std::vector<crypto::u64> mac_keys_;  ///< per node, shared by all partitions
  sim::rng::Stream stream_;            ///< wallet draws via const child() only
  std::size_t node_count_ = 0;
  Amount initial_balance_ = 0;
  std::uint64_t aggregates_ = 0;
  std::uint64_t aggregates_refused_ = 0;
  std::uint64_t receipts_batched_ = 0;
};

}  // namespace p2panon::payment
