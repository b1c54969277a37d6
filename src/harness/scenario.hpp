// One end-to-end experiment scenario (paper §3 setup).
//
// A scenario builds the overlay (N nodes, degree d, malicious fraction f,
// churn), the probing estimators, bank accounts for every node, selects
// `pair_count` (I, R) pairs, runs `connections_per_pair` recurring
// connections per pair spread over simulated time, settles every pair
// through the payment system, and collects the metrics behind every table
// and figure of the paper's evaluation.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "core/async_path.hpp"
#include "core/data_phase.hpp"
#include "core/incentive.hpp"
#include "core/routing.hpp"
#include "fault/fault.hpp"
#include "metrics/anonymity.hpp"
#include "metrics/stats.hpp"
#include "net/overlay.hpp"
#include "net/probing.hpp"

namespace p2panon::harness {

/// The carrier of fault-mode legs/acks/keepalives and bank-fault
/// claim/close traffic. transport::SimTransport is the only one; nothing
/// branches on this. It remains only because the benchmark's workload code
/// assigns ScenarioConfig::transport, and goes with the next benchmark
/// revision.
enum class TransportBackend : std::uint8_t {
  kSim = 1,
};

/// Every node's opening bank balance, in credits (large enough never to bind).
inline constexpr double kInitialBalanceCredits = 1.0e9;

struct ScenarioConfig {
  std::uint64_t seed = 1;

  net::OverlayConfig overlay;     ///< N = 40, d = 5, f, churn (paper defaults)
  net::ProbingConfig probing;

  core::QualityWeights weights;   ///< w_s = w_a = 0.5 (paper default)
  core::StrategyKind good_strategy = core::StrategyKind::kUtilityModelI;
  std::uint32_t lookahead_depth = 3;   ///< Utility Model II horizon

  std::size_t pair_count = 100;        ///< (I, R) pairs (paper: 100)
  std::uint32_t connections_per_pair = 20;  ///< max-connections (paper: 20)

  /// Popularity skew of responder selection: 0 = uniform (the paper's
  /// setup); > 0 picks responders Zipf(s) by node id (web-like workloads
  /// where a few responders receive most recurring connections).
  double responder_zipf = 0.0;

  /// Connection-id rotation epoch applied to every pair's contract
  /// (see core::Contract::cid_rotation). 0 = off.
  std::uint32_t cid_rotation = 0;

  double p_f_lo = 50.0;  ///< forwarding benefit drawn U[p_f_lo, p_f_hi]
  double p_f_hi = 100.0;
  double tau = 2.0;      ///< P_r = tau * P_f (paper: {0.5, 1, 2, 4})

  core::TerminationPolicy termination = core::TerminationPolicy::kCrowds;
  double p_forward = 0.75;
  std::uint32_t ttl_hops = 4;

  /// Overlay warm-up before the first connection (lets joins and probing
  /// populate availability estimates).
  sim::Time warmup = sim::minutes(60.0);
  /// Pairs start uniformly over this window after warm-up.
  sim::Time pair_start_window = sim::hours(2.0);
  /// Mean gap between successive connections of one pair (exponential).
  sim::Time connection_interval_mean = sim::minutes(5.0);

  core::AdversaryModel adversary;  ///< payload-drop attack knobs
  std::size_t history_capacity = 0;  ///< per-node entries; 0 = unbounded

  /// Fault model. Default-constructed (all-off) leaves the scenario on the
  /// omniscient synchronous path — bitwise identical to the pre-fault
  /// implementation. Any enabled fault switches connection setup to the
  /// timeout-driven AsyncConnectionRunner and adds a keepalive data phase
  /// per connection.
  fault::FaultConfig fault;
  core::AsyncConfig async_setup;    ///< setup timeouts/backoff (fault mode)
  core::DataPhaseConfig data_phase; ///< keepalive phase knobs (fault mode)

  metrics::AnonymityValuation anonymity;  ///< A(.) for the initiator utility

  core::PathBuilderConfig path_builder;

  /// Window-synchronisation quantum of the K > 1 sharded paper runner
  /// (ignored at K = 1, which runs on the plain serial Simulator).
  sim::Time engine_window = sim::minutes(5.0);

  /// Engine shards for the full paper scenario. 1 (default) runs the
  /// replicate on the plain serial Simulator, with the per-replicate
  /// decision cache always attached. > 1 routes the replicate through the
  /// windowed sharded paper runner (harness/paper_sharded.hpp):
  /// node-partitioned history/probing state behind barrier-merged read views, pair
  /// settlement batched through the window-barrier hook onto the sharded
  /// settlement plane. K > 1 is a different (windowed) workload than the
  /// serial scenario — its contract is pool-size- and window-invariance of
  /// ScenarioResult::sharded_digest, not bitwise equality with K = 1.
  std::uint32_t engine_shards = 1;
  /// Bank partitions of the sharded settlement plane (K > 1 only);
  /// 0 = one per engine shard.
  std::uint32_t bank_partitions = 0;
  /// View-refresh interval R (K > 1 only): the barrier-merged read views
  /// (published liveness, availability snapshot, folded history) refresh
  /// every round(R / engine_window) window barriers — R is snapped to a
  /// whole number of windows. 0 = refresh at every barrier. Fixing R while
  /// varying the window is what makes the K > 1 digest window-invariant:
  /// runs whose windows both divide R refresh identical views at identical
  /// absolute times.
  sim::Time view_refresh = 0.0;

  /// Single-valued; see TransportBackend. Read by nothing.
  TransportBackend transport = TransportBackend::kSim;

  /// The first knob set away from its default that changes K = 1 results
  /// but that the K > 1 runner (harness/paper_sharded) does not implement,
  /// or an empty name when there is none. Always empty at K = 1 (the serial
  /// runner); run_paper_scenario_sharded refuses these knobs at every K.
  [[nodiscard]] std::string_view validate() const;
};

/// Everything the benches and EXPERIMENTS.md need from one replicate.
struct ScenarioResult {
  // --- Node-level (good nodes only): whole-experiment totals per node.
  metrics::Accumulator good_payoff;             ///< total payoff per good node
  std::vector<double> good_payoff_samples;      ///< one sample per good node

  // --- Membership-level: the payoff a good node derives from ONE recurring
  // connection set it serves: m*P_f + P_r/||pi|| minus its transmission
  // costs within the set and its participation cost. This is the paper's
  // Figs. 3-4/6-7 payoff: it falls as adversaries inflate ||pi|| (both the
  // per-member workload m = L*k/||pi|| and the routing share shrink), while
  // whole-experiment per-node totals do not.
  metrics::Accumulator member_payoff;
  std::vector<double> member_payoff_samples;  ///< one sample per (pair, good member)

  // --- Pair-level (one sample per (I, R) pair).
  metrics::Accumulator forwarder_set_size;      ///< ||pi|| (Fig. 5)
  metrics::Accumulator avg_path_length;         ///< L
  metrics::Accumulator path_quality;            ///< Q(pi) = L / ||pi||
  metrics::Accumulator connection_latency;      ///< end-to-end seconds per connection
  metrics::Accumulator initiator_utility;       ///< Eq. 2 with actual spend
  metrics::Accumulator initiator_spend;

  /// Prop. 1: per-connection new-edge fraction E[X], indexed by connection
  /// number (averaged over pairs).
  std::vector<metrics::Accumulator> new_edge_fraction_by_conn;

  // --- System-level.
  double routing_efficiency = 0.0;  ///< avg member payoff / avg ||pi|| (Table 2)
  std::uint64_t churn_events = 0;
  std::uint64_t reformations = 0;
  std::uint64_t probes = 0;
  std::uint64_t connections_completed = 0;
  bool payment_conserved = false;  ///< bank money + coins unchanged
  double total_paid_credits = 0.0;
  sim::Time sim_end_time = 0.0;

  // --- Fault/robustness metrics (all zero outside fault mode).
  std::uint64_t connections_failed = 0;    ///< setups that exhausted attempts
  std::uint64_t setup_attempts = 0;        ///< attempts incl. re-formations
  std::uint64_t setup_ack_timeouts = 0;    ///< per-hop ack timers that fired
  std::uint64_t crashes = 0;               ///< silent crashes injected
  std::uint64_t messages_dropped = 0;      ///< legs/acks lost to the injector
  std::uint64_t probe_false_negatives = 0;
  std::uint64_t keepalives_sent = 0;
  std::uint64_t keepalives_delivered = 0;
  std::uint64_t failures_detected = 0;     ///< keepalive timers that fired
  metrics::Accumulator setup_time;         ///< established setups, seconds
  metrics::Accumulator time_to_detect;     ///< detection lag per failure, seconds

  // --- Simulation-engine counters (EventQueue::Stats for the replicate's
  // simulator). Deterministic: bitwise-equal runs schedule/cancel/fire the
  // same events, so the determinism tests pin these too. The heap-alloc
  // count is the number of scheduled callbacks that outgrew EventCallback's
  // inline buffer — zero in steady state (see the scale bench / alloc guard).
  std::uint64_t engine_events_scheduled = 0;
  std::uint64_t engine_events_cancelled = 0;
  std::uint64_t engine_events_fired = 0;
  std::uint64_t engine_callback_heap_allocs = 0;
  /// Sharded-engine counters: zero at K = 1 (the serial path); at K > 1 they
  /// count cross-shard mailbox traffic and the windowed drive's
  /// synchronisation points. Deterministic, so the determinism suite pins
  /// both.
  std::uint64_t engine_cross_shard_messages = 0;
  std::uint64_t engine_window_barriers = 0;

  // --- Settlement-lifecycle outcomes (PR 5). Every pair terminalises in
  // exactly one state; outside bank-fault mode every settlement closes
  // cleanly and the claim/refund counters stay zero. Money totals are exact
  // milli-credit integers so conservation is assertable to the last unit.
  std::uint64_t settlements_closed = 0;     ///< full close by the initiator
  std::uint64_t settlements_abandoned = 0;  ///< deadline/abandon with claims
  std::uint64_t settlements_expired = 0;    ///< deadline with zero claims
  std::uint64_t settlements_prorata = 0;    ///< abandoned with partial payout
  std::uint64_t claims_submitted = 0;       ///< claims that reached the bank
  std::uint64_t claims_lost = 0;            ///< lost/never-sent submissions
  std::uint64_t claims_rejected = 0;        ///< rejected by verification
  std::uint64_t claims_after_terminal = 0;  ///< raced past close/abandon
  std::int64_t settlement_escrow_milli = 0;   ///< money in (escrow funding)
  std::int64_t settlement_paid_milli = 0;     ///< money out to forwarders
  std::int64_t settlement_refunded_milli = 0; ///< money back to initiators
  /// Bank-fault mode: audit-journal replay matches the bank's final account/
  /// escrow/outstanding state AND the journal's per-account escrow payouts
  /// and refund totals match the settlement reports (bank side == node
  /// side). Vacuously true outside bank-fault mode.
  bool settlement_reconciled = true;

  // --- Transport-plane counters (zero outside fault/bank-fault modes — the
  // synchronous path sends no messages). Deterministic, pinned by the
  // determinism suite alongside the engine counters. In-sim nothing is
  // decoded, so frames_rejected stays zero. The TCP-only counters
  // (reconnects, backoff, heartbeats, deadlines) never move in-sim and are
  // reported by the TCP processes of tools/transport/run_chaos.py instead.
  std::uint64_t transport_frames_sent = 0;
  std::uint64_t transport_frames_delivered = 0;
  std::uint64_t transport_frames_dropped = 0;
  std::uint64_t transport_frames_rejected = 0;

  /// K > 1 model fingerprint (zero on the serial / K = 1 paths): FNV-1a over
  /// the sharded paper runner's order-invariant end state — per-pair
  /// settlement outcomes, merged per-account balance deltas, per-shard model
  /// counters, probing/history end state. Bitwise-stable across thread-pool
  /// sizes and window lengths for fixed {seed, K}; pinned by
  /// tests/harness/test_paper_sharded.cpp.
  std::uint64_t sharded_digest = 0;

  /// Data-phase delivery ratio; 1.0 when no keepalive was ever sent (the
  /// fault-free synchronous path delivers by construction).
  [[nodiscard]] double delivery_ratio() const noexcept {
    return keepalives_sent == 0
               ? 1.0
               : static_cast<double>(keepalives_delivered) /
                     static_cast<double>(keepalives_sent);
  }
};

class ScenarioRunner {
 public:
  explicit ScenarioRunner(ScenarioConfig cfg) : cfg_(std::move(cfg)) {}

  /// Run one full replicate. Deterministic in cfg.seed.
  [[nodiscard]] ScenarioResult run() const;

  [[nodiscard]] const ScenarioConfig& config() const noexcept { return cfg_; }

 private:
  ScenarioConfig cfg_;
};

/// Paper-§3 defaults: N = 40, d = 5, 100 pairs, 20 connections each,
/// P_f ~ U[50, 100], w_s = w_a = 0.5, Pareto sessions with median 60 min.
[[nodiscard]] ScenarioConfig paper_default_config(std::uint64_t seed = 1);

}  // namespace p2panon::harness
