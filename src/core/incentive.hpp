// The incentive mechanism tying contracts, routing, history and payments
// together for one recurring connection set pi (paper §2.2).
//
// A ConnectionSetSession runs the k connections of one (I, R) pair, records
// history at forwarders, tracks the growing forwarder set Q = U_i F_i and
// per-edge reuse (the Prop. 1 statistic), and finally settles: the initiator
// funds an escrow with blind coins, opens a settlement with its validated
// path records, forwarders claim with their MAC'd receipts, and each
// forwarder is paid m * P_f + P_r / ||pi||.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/path.hpp"
#include "metrics/stats.hpp"
#include "payment/bank.hpp"
#include "payment/receipt.hpp"
#include "payment/settlement.hpp"

namespace p2panon::core {

/// Insert `value` into the ascending, duplicate-free `values`. Returns false
/// when it was already there.
template <class T>
bool insert_sorted(std::vector<T>& values, T value) {
  const auto it = std::lower_bound(values.begin(), values.end(), value);
  if (it != values.end() && *it == value) return false;
  values.insert(it, value);
  return true;
}

/// Per-node running account of benefits and costs, in credit units (doubles;
/// the payment subsystem underneath accounts in exact milli-credits).
struct NodeLedger {
  double benefit = 0.0;
  double cost = 0.0;
  std::size_t forwarding_instances = 0;
  bool participated = false;

  [[nodiscard]] double payoff() const noexcept { return benefit - cost; }
};

class PayoffLedger {
 public:
  explicit PayoffLedger(std::size_t node_count) : ledgers_(node_count) {}

  [[nodiscard]] const NodeLedger& at(net::NodeId id) const { return ledgers_.at(id); }
  [[nodiscard]] std::size_t node_count() const noexcept { return ledgers_.size(); }

  /// Charge the one-time participation cost C_p if not yet charged.
  void charge_participation(const net::Overlay& overlay, net::NodeId id);

  /// Charge the transmission cost C_t(from, to) for one forwarding instance.
  void charge_transmission(const net::Overlay& overlay, net::NodeId from, net::NodeId to);

  void credit(net::NodeId id, double amount) { ledgers_.at(id).benefit += amount; }

  /// Payoff statistics over the good (non-malicious) nodes.
  [[nodiscard]] metrics::Accumulator good_node_payoffs(const net::Overlay& overlay) const;

  /// Raw payoffs of all good nodes (for CDF figures).
  [[nodiscard]] std::vector<double> good_node_payoff_samples(const net::Overlay& overlay) const;

 private:
  std::vector<NodeLedger> ledgers_;
};

/// Active-adversary behaviour during a connection (paper §5 attack (2)
/// family): a malicious forwarder may drop the payload, forcing a path
/// reformation — exactly the event that helps intersection attacks.
struct AdversaryModel {
  double drop_probability = 0.0;  ///< per-connection drop chance at a malicious hop
};

/// At most this many payload-drop reformations per connection; the path
/// built after the last one is kept even if a malicious hop would drop it.
inline constexpr std::uint32_t kMaxDropReformations = 8;

struct SettleOutcome {
  payment::SettlementReport report;
  std::size_t forwarder_set_size = 0;  ///< ||pi||
  double initiator_spend = 0.0;        ///< credits actually paid out of pocket
};

/// One forwarder's pending claim against an open settlement: the account
/// that will redeem it plus the MAC'd receipt it holds. The harness turns
/// these into (possibly lost / delayed / never-sent) bank messages.
struct ClaimSubmission {
  payment::AccountId claimant = payment::kInvalidAccount;
  payment::ForwardReceipt receipt;
};

/// An opened-but-not-terminal settlement: the escrow is funded, the
/// initiator's completed-connection records are on file at the bank, and
/// the forwarders' receipts are ready to claim.
struct PreparedSettlement {
  payment::SettlementId sid = 0;
  payment::Amount escrow_in = 0;  ///< full committed funding (all paths)
  std::vector<ClaimSubmission> claims;
};

class ConnectionSetSession {
 public:
  ConnectionSetSession(net::PairId pair, net::NodeId initiator, net::NodeId responder,
                       Contract contract) noexcept
      : pair_(pair), initiator_(initiator), responder_(responder), contract_(contract) {}

  [[nodiscard]] net::PairId pair() const noexcept { return pair_; }
  [[nodiscard]] net::NodeId initiator() const noexcept { return initiator_; }
  [[nodiscard]] net::NodeId responder() const noexcept { return responder_; }
  [[nodiscard]] const Contract& contract() const noexcept { return contract_; }

  /// Make room for `connections` connections up front, so running the set
  /// does not reallocate its path list.
  void reserve_connections(std::size_t connections) { paths_.reserve(connections); }

  /// Run the next connection of the set: build the path, record history at
  /// every forwarder, charge transmission/participation costs, and update
  /// the forwarder-set and edge-reuse statistics. Returns the built path.
  const BuiltPath& run_connection(const PathBuilder& builder, HistoryStore& history,
                                  const StrategyAssignment& strategies, PayoffLedger& ledger,
                                  const net::Overlay& overlay, sim::rng::Stream& stream,
                                  const AdversaryModel& adversary = {});

  /// Adopt an externally-formed path (e.g. from AsyncConnectionRunner or a
  /// data-phase re-formation) as the set's next connection: records history
  /// at every forwarder under the wire-visible cid, charges costs, and
  /// updates the forwarder-set / edge-reuse statistics — exactly the
  /// bookkeeping tail of run_connection, without building the path.
  const BuiltPath& adopt_connection(BuiltPath path, HistoryStore& history,
                                    PayoffLedger& ledger, const net::Overlay& overlay);

  /// Settle all completed connections through the payment system and credit
  /// forwarder ledgers. Call once, after the last run_connection. The
  /// synchronous composition of open_settlement + every claim + close +
  /// finalize_settlement, with identical bank traffic and stream draws.
  SettleOutcome settle(payment::Bank& bank, payment::SettlementEngine& engine,
                       PayoffLedger& ledger, sim::rng::Stream& stream);

  // --- Crash-tolerant settlement lifecycle (fault-mode wiring). ---

  /// Record per-connection completion from data-phase receipts. Off by
  /// default: settle treats every adopted connection as completed (the
  /// pre-lifecycle behaviour, bit for bit). Once enabled, only connections
  /// explicitly marked completed contribute PathRecords at settlement —
  /// records for dead connections are excluded rather than over-claimed.
  void enable_completion_tracking() { track_completion_ = true; }
  [[nodiscard]] bool completion_tracking() const noexcept { return track_completion_; }
  /// Mark connection `conn_index` (1-based, session adoption order) as
  /// completed (its data phase ran to the end of the phase window).
  void mark_completed(std::uint32_t conn_index);
  [[nodiscard]] std::size_t completed_connections() const noexcept;

  /// Initiator side of settlement, stopping short of close(): fund the
  /// escrow with blind coins over the full committed amount (all adopted
  /// paths — the escrow was committed before outcomes were known), open the
  /// settlement with the *completed* records and `deadline`, and assemble
  /// the receipts every forwarder holds (completed or not; the bank's
  /// records decide what verifies). The settlement and the receipts take
  /// the pair's next unused set sequence on `engine` (next_set_seq), so
  /// sessions of one pair settle side by side. Marks the session settled.
  PreparedSettlement open_settlement(payment::Bank& bank, payment::SettlementEngine& engine,
                                     sim::rng::Stream& stream, sim::Time deadline);

  /// Credit forwarder ledgers from the terminal report of `sid` and build
  /// the SettleOutcome. Call exactly once, after the settlement reached a
  /// terminal state (close / abandon / deadline expiry).
  SettleOutcome finalize_settlement(const payment::Bank& bank,
                                    const payment::SettlementEngine& engine,
                                    PayoffLedger& ledger, payment::SettlementId sid) const;

  [[nodiscard]] std::uint32_t connections_run() const noexcept {
    return static_cast<std::uint32_t>(paths_.size());
  }
  /// True once open_settlement/settle ran; no further connection may join
  /// the set (late async completions must be dropped by the caller).
  [[nodiscard]] bool settled() const noexcept { return settled_; }
  [[nodiscard]] const std::vector<BuiltPath>& paths() const noexcept { return paths_; }

  /// Distinct forwarders across all connections so far, Q = U_i F_i, in
  /// ascending node order.
  [[nodiscard]] const std::vector<net::NodeId>& forwarder_set() const noexcept {
    return forwarder_set_;
  }

  /// Average forwarding-path length L across connections so far.
  [[nodiscard]] double average_path_length() const noexcept;

  /// Path quality Q(pi) = L / ||pi|| (paper §2.1). 0 before any connection.
  [[nodiscard]] double path_quality() const noexcept;

  /// Fraction of edges of connection k that were new (not on pi^1..pi^{k-1});
  /// index 0 is connection 1 (always all-new). The Prop. 1 statistic E[X].
  [[nodiscard]] const std::vector<double>& new_edge_fractions() const noexcept {
    return new_edge_fraction_;
  }

  /// Path reformations forced by payload drops (adversary model).
  [[nodiscard]] std::uint64_t reformations() const noexcept { return reformations_; }

 private:
  net::PairId pair_;
  net::NodeId initiator_;
  net::NodeId responder_;
  Contract contract_;

  std::vector<BuiltPath> paths_;
  std::vector<net::NodeId> forwarder_set_;  ///< ascending
  /// Directed edges seen on any completed path of this set, packed as
  /// from << 32 | to, ascending.
  std::vector<std::uint64_t> seen_edges_;
  std::vector<double> new_edge_fraction_;
  std::uint64_t reformations_ = 0;
  bool settled_ = false;
  bool track_completion_ = false;
  /// completed_[j] == connection j+1 confirmed complete (tracking mode).
  std::vector<bool> completed_;
};

}  // namespace p2panon::core
