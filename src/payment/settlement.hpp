// Connection-set settlement (paper §2.2) with a crash-tolerant lifecycle.
//
// After all k connections of a recurring set pi complete, the initiator's
// escrow pays every forwarder  m * P_f + P_r / ||pi||  where m is its number
// of forwarding instances across the set and ||pi|| the size of the distinct
// forwarder set. The engine is bank-side logic:
//
//   1. The initiator opens a settlement against a funded escrow, submitting
//      the validated per-connection path records (recreated from the
//      reverse-path receipt chains). Records cover only connections whose
//      completion the initiator confirmed — receipts for dead connections
//      are excluded at the source rather than over-claimed.
//   2. Forwarders submit claims: their account plus their receipts.
//   3. The engine verifies each receipt's MAC under the claimant's
//      registered key, rejects receipts bound to another settlement (each
//      settlement records the nonce its receipts carry, and a nonce opens at
//      most one settlement), rejects receipts that do not match the
//      initiator's path records (over-claims), and dedupes replays within
//      the settlement: a hop pays at most as many claims as the records
//      list it.
//   4. The settlement terminates exactly once (first-wins; replayed or
//      racing bank messages are no-ops):
//
//        Open ──claim──> Claiming ──close()──────────> Closed
//          │                │
//          │                ├──abandon()/deadline────> Abandoned (pro-rata)
//          └──deadline, zero verified claims────────> Expired  (full refund)
//
//      close() pays verified claims out of escrow and refunds the remainder
//      to the initiator-designated (pseudonymous) refund account. abandon()
//      — explicit, or implied by an expired deadline with verified claims —
//      pays the same verified-claims math pro-rata over the *completed*
//      connections the records describe (m counts completed instances only,
//      the routing share splits over the realized ||pi||). An expired
//      settlement with zero verified claims refunds the whole escrow.
//
// Cheating handled: forged MACs, over-claims (receipts for hops not on any
// validated path), replayed receipts (same settlement, or a sibling set's
// receipt under another nonce), claims
// against the wrong account, claims raced past close/abandon, and initiator
// payment refusal (impossible by construction — the escrow was funded
// before any forwarding happened). An initiator crash between funding and
// close can delay forwarders' payment until the deadline, never void it.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "payment/bank.hpp"
#include "payment/receipt.hpp"
#include "sim/flat_hash.hpp"
#include "sim/types.hpp"

namespace p2panon::payment {

using SettlementId = std::uint32_t;

/// What open() returns when it refuses: the nonce already has a settlement.
/// Every lookup treats it as unknown.
inline constexpr SettlementId kNoSettlement = ~SettlementId{0};

/// Settlements opened without a deadline never expire (the pre-fault
/// synchronous pipeline closes them in the same step it opens them).
inline constexpr sim::Time kNoSettlementDeadline = -1.0;

/// Lifecycle of one settlement. Closed/Abandoned/Expired are terminal; every
/// transition site is first-wins guarded (see tools/lint/check_invariants.py
/// rule R5), so a replayed close, a racing abandon, or a late deadline sweep
/// can never move money twice.
enum class SettlementState : std::uint8_t {
  kOpen,       ///< opened, no verified claim yet
  kClaiming,   ///< at least one verified claim accepted
  kClosed,     ///< initiator closed: full payout of verified claims
  kAbandoned,  ///< initiator never closed: pro-rata payout of verified claims
  kExpired,    ///< deadline passed with zero verified claims: full refund
};

[[nodiscard]] constexpr bool is_terminal(SettlementState s) noexcept {
  return s == SettlementState::kClosed || s == SettlementState::kAbandoned ||
         s == SettlementState::kExpired;
}

/// The initiator's validated record of one connection's path: the ordered
/// forwarder list for pi^j (excluding initiator and responder), plus the
/// on-the-wire entry node (the first forwarder's predecessor — the initiator
/// itself, though nothing marks it as such: a forwarder of a longer path
/// would look identical, which is exactly the Crowds-style deniability the
/// paper relies on) and the exit node (the responder).
struct PathRecord {
  std::uint32_t conn_index = 0;
  net::NodeId entry = net::kInvalidNode;
  net::NodeId exit = net::kInvalidNode;
  std::vector<net::NodeId> forwarders;

  friend bool operator==(const PathRecord&, const PathRecord&) = default;
};

struct SettlementTerms {
  Amount forwarding_benefit = 0;  ///< P_f per forwarding instance
  Amount routing_benefit = 0;     ///< P_r shared across the forwarder set
};

enum class ClaimResult {
  kAccepted,
  kBadMac,          ///< MAC does not verify under the claimant's key
  kWrongClaimant,   ///< receipt names a different forwarder than the account
  kNotOnPath,       ///< over-claim: hop absent from the validated records
  kDuplicate,       ///< replayed receipt beyond the hop's multiplicity
  kUnknownSettlement,  ///< no such settlement, or the receipt's nonce is another's
  kNotOpen,         ///< settlement already closed/abandoned/expired
};

struct SettlementReport {
  Amount escrow_in = 0;
  Amount paid_out = 0;
  Amount refunded = 0;
  std::size_t accepted_claims = 0;
  std::size_t rejected_claims = 0;
  std::size_t forwarder_set_size = 0;  ///< ||pi|| over the settled records
  SettlementState outcome = SettlementState::kClosed;
  /// Abandoned with at least one verified claim: forwarders were paid over
  /// the partial (completed-connections-only) record set.
  bool pro_rata = false;
  std::size_t completed_connections = 0;  ///< distinct conn_index in records
  /// Per-account payout, for auditing: one entry per paid account, in
  /// ascending account order, so consumers that fold the payouts into
  /// floating-point sums need not sort first.
  std::vector<std::pair<AccountId, Amount>> payouts;
};

class SettlementEngine {
 public:
  explicit SettlementEngine(Bank& bank) noexcept : bank_(bank) {}

  SettlementEngine(const SettlementEngine&) = delete;
  SettlementEngine& operator=(const SettlementEngine&) = delete;

  /// Open a settlement for set `set_seq` of connection-set `pair` against
  /// `escrow`; it accepts only receipts carrying that nonce. The path
  /// records are the initiator's validated paths (completed connections
  /// only); `refund_account` receives whatever the escrow does not pay out.
  /// A non-negative `deadline` arms the crash-tolerant lifecycle: once the
  /// simulator clock reaches it, expire_due() terminalises the settlement
  /// without the initiator. Returns kNoSettlement, leaving the escrow
  /// untouched, when the nonce already opened a settlement.
  SettlementId open(net::PairId pair, EscrowId escrow, SettlementTerms terms,
                    const std::vector<PathRecord>& records, AccountId refund_account,
                    sim::Time deadline = kNoSettlementDeadline, std::uint32_t set_seq = 0);

  /// The lowest set sequence of `pair` with no settlement yet: what a set
  /// of `pair` about to settle binds its receipts to.
  [[nodiscard]] std::uint32_t next_set_seq(net::PairId pair) const;

  /// True when `nonce` already opened a settlement here.
  [[nodiscard]] bool has_nonce(SettlementNonce nonce) const {
    return nonces_.contains(sim::PackedKey{nonce});
  }

  /// Submit one receipt as a claim by `claimant`.
  ClaimResult submit_claim(SettlementId id, AccountId claimant, const ForwardReceipt& receipt);

  struct ClaimBatchResult {
    std::size_t accepted = 0;
    std::size_t rejected = 0;
  };

  /// Batched claim submission: one claimant redeems many receipts against
  /// one settlement, each through submit_claim in order (the outcome is
  /// pinned by tests/payment/test_sharded_settlement.cpp). The sharded
  /// settlement plane submits its forwarder-epoch aggregates this way.
  ClaimBatchResult submit_claim_batch(SettlementId id, AccountId claimant,
                                      std::span<const ForwardReceipt> receipts);

  /// Pay all verified claims and refund the remainder. Each forwarder with
  /// at least one verified instance receives m*P_f plus an equal share of
  /// P_r across the *claimed* forwarder set (unclaimed shares are refunded).
  /// Idempotent / first-wins: on an already-terminal settlement it returns
  /// the stored report unchanged (no second payout, no second refund).
  const SettlementReport& close(SettlementId id);

  /// Terminalise without the initiator (the bank learned it is gone): pay
  /// the verified claims pro-rata over the completed records, refund the
  /// rest. First-wins like close().
  const SettlementReport& abandon(SettlementId id);

  /// Deadline sweep, driven by the simulator clock: every non-terminal
  /// settlement whose deadline is <= `now` is abandoned (verified claims
  /// pending) or expired (zero verified claims — full refund). Returns the
  /// number of settlements terminalised by this call; idempotent.
  std::size_t expire_due(sim::Time now);

  [[nodiscard]] SettlementState state(SettlementId id) const;
  [[nodiscard]] sim::Time deadline(SettlementId id) const;
  /// Terminal in any way (closed, abandoned, or expired).
  [[nodiscard]] bool is_closed(SettlementId id) const;
  [[nodiscard]] std::size_t open_settlements() const noexcept;

  /// Report of a terminal settlement; nullptr while still open/claiming.
  [[nodiscard]] const SettlementReport* report(SettlementId id) const;

  /// ||pi|| as recorded by the initiator (distinct forwarders across records).
  [[nodiscard]] std::size_t forwarder_set_size(SettlementId id) const;

  /// Number of settlements ever opened (terminal or not).
  [[nodiscard]] std::size_t settlement_count() const noexcept { return settlements_.size(); }

  /// The nonce settlement `id` was opened under.
  [[nodiscard]] SettlementNonce nonce(SettlementId id) const { return settlements_.at(id).nonce; }

  // --- Engine-wide counters (for the chaos-sweep conservation audit).
  [[nodiscard]] std::uint64_t claims_accepted() const noexcept { return claims_accepted_; }
  [[nodiscard]] std::uint64_t claims_rejected() const noexcept { return claims_rejected_; }
  /// Claims that arrived after close/abandon/expire — each one a would-be
  /// double-spend the lifecycle refused.
  [[nodiscard]] std::uint64_t claims_after_terminal() const noexcept {
    return claims_after_terminal_;
  }
  /// Authentic receipts of one set of a pair — right claimant, MAC
  /// verified — claimed against another set's settlement (refused as
  /// kUnknownSettlement, like every receipt under another nonce).
  [[nodiscard]] std::uint64_t cross_settlement_replays() const noexcept {
    return cross_settlement_replays_;
  }

 private:
  /// One distinct validated hop, keyed in Settlement::hop_index by
  /// hop_key().
  struct Hop {
    /// Positions the hop occupies on the validated paths: a node may occupy
    /// several positions on one path, and in degenerate cycles even with
    /// identical neighbours.
    std::uint32_t multiplicity = 0;
    /// Claims already accepted against the hop (replay guard, bounded by
    /// the multiplicity).
    std::uint32_t used = 0;
    /// Index of the hop's forwarder in Settlement::forwarders.
    std::uint32_t forwarder = 0;
  };

  /// One distinct forwarder of the records and the claims it won.
  struct ForwarderTally {
    net::NodeId node = net::kInvalidNode;
    /// The account bound to `node`, once it claimed; a forwarder has one
    /// (submit_claim refuses pseudonymous claimants).
    AccountId claimant = kInvalidAccount;
    std::uint32_t instances = 0;  ///< accepted claims over its hops: m
  };

  struct Settlement {
    SettlementNonce nonce = 0;
    EscrowId escrow = 0;
    SettlementTerms terms;
    AccountId refund_account = kInvalidAccount;
    SettlementState state = SettlementState::kOpen;
    sim::Time deadline = kNoSettlementDeadline;
    /// The validated hops, one entry per distinct hop in record order. This
    /// and the two members below are built once in open() and released at
    /// terminalisation.
    std::vector<Hop> hops;
    /// hop_key() -> index into `hops`.
    sim::PackedFlatMap<std::uint32_t> hop_index;
    /// The distinct forwarders, in record order.
    std::vector<ForwarderTally> forwarders;
    std::size_t set_size = 0;  ///< distinct forwarders in records: ||pi||
    std::size_t completed_connections = 0;  ///< distinct conn_index in records
    std::size_t accepted = 0;
    std::size_t rejected = 0;
    std::optional<SettlementReport> report;  ///< set on terminalisation
  };

  [[nodiscard]] static sim::PackedKey hop_key(net::NodeId forwarder, std::uint32_t conn_index,
                                              net::NodeId predecessor,
                                              net::NodeId successor) noexcept {
    return sim::PackedKey::of(forwarder, conn_index, predecessor, successor);
  }

  /// The one place money moves: pays verified claims, refunds the rest,
  /// stamps the terminal state. Callers must have first-wins-checked.
  const SettlementReport& finalize(SettlementId id, SettlementState outcome);

  std::vector<Settlement> settlements_;
  /// Every nonce that opened a settlement (a set: the value is unused).
  sim::PackedFlatMap<bool> nonces_;
  Bank& bank_;
  std::uint64_t claims_accepted_ = 0;
  std::uint64_t claims_rejected_ = 0;
  std::uint64_t claims_after_terminal_ = 0;
  std::uint64_t cross_settlement_replays_ = 0;
};

/// The C1–C5 money audit of one payment universe: a bank, its audit journal
/// and the settlement engine that moves its escrows (DESIGN.md 3.9). Each
/// flag is one invariant; the totals and outcome counts are over the
/// engine's settlement reports.
struct PartitionAudit {
  bool conserved = false;        ///< C1: money + outstanding coins == initial total
  bool all_terminal = false;     ///< C2: no settlement left Open/Claiming
  /// C3: every report's escrow_in == paid + refunded; once all are terminal,
  /// every bank escrow is empty and the journal's funded total equals the
  /// reports' paid + refunded total.
  bool escrows_drained = false;
  bool replay_ok = false;        ///< C4: journal replay rebuilds the bank's exact state
  /// C4: the journal's escrow-pay flows (per account and in total) and its
  /// refund total equal the reports' — the double-payment detector.
  bool payouts_match = false;
  bool expired_refunded = false; ///< C5: every Expired report refunded its full escrow
  Amount escrow_milli = 0;
  Amount paid_milli = 0;
  Amount refunded_milli = 0;
  std::uint64_t closed = 0;
  std::uint64_t abandoned = 0;
  std::uint64_t expired = 0;
  std::uint64_t prorata = 0;

  [[nodiscard]] bool ok() const noexcept {
    return replay_ok && conserved && escrows_drained && all_terminal && expired_refunded &&
           payouts_match;
  }
};

/// Run C1–C5 over `bank`, the journal `journal` recorded for it from its
/// first account opening, and `engine`. `initial_total` is all the money
/// ever created in the bank (the sum of its account openings). Read-only;
/// this is the one implementation of the invariants — the serial scenario,
/// every partition of the sharded settlement plane and the TCP bank call it.
[[nodiscard]] PartitionAudit audit_settlements(const Bank& bank, const AuditLog& journal,
                                               const SettlementEngine& engine,
                                               Amount initial_total);

}  // namespace p2panon::payment
