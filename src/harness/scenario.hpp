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
#include <string>
#include <type_traits>
#include <vector>

#include "core/async_path.hpp"
#include "core/data_phase.hpp"
#include "core/incentive.hpp"
#include "core/routing.hpp"
#include "fault/fault.hpp"
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

  core::AdversaryModel adversary;  ///< payload-drop attack

  /// Fault model. Default-constructed (all-off) leaves the scenario on the
  /// omniscient synchronous path. Any enabled fault switches connection
  /// setup to the timeout-driven AsyncConnectionRunner and adds a keepalive
  /// data phase per connection.
  fault::FaultConfig fault;
  core::AsyncConfig async_setup;    ///< setup attempt deadline (fault mode)
  core::DataPhaseConfig data_phase; ///< keepalive phase knobs (fault mode)

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

  /// Empty when the runner runs this config as written, else a message
  /// naming the first field out of range (any K; the K > 1 runner also needs
  /// overlay.node_count >= 4) or, for the K > 1 runner, the first
  /// kSerialOnly leaf (see for_each_config_field) that differs from
  /// ScenarioConfig{}. Both runners throw std::invalid_argument with it.
  [[nodiscard]] std::string validate() const { return validate(engine_shards > 1); }
  [[nodiscard]] std::string validate(bool sharded_runner) const;

  /// The contract a pair with forwarding benefit P_f (credits) runs under,
  /// in both runners.
  [[nodiscard]] core::Contract contract_for(double forwarding_benefit) const noexcept;
};

/// Which runners implement a config leaf; the K > 1 runner refuses a
/// kSerialOnly leaf set away from its default.
enum class Runners : std::uint8_t { kBoth, kSerialOnly };

/// The ScenarioConfig field table: calls `visit(dotted_name, leaf, runners)`
/// once per leaf of `cfg`, depth first in declaration order. The checkpoint
/// fingerprint, validate() and the tests walk it. Each struct is unpacked
/// with a structured binding, so a member added without a row stops the
/// build. `transport` is bound but not visited: it has one value, nothing
/// reads it, and no fingerprint ever mixed it.
template <class Cfg, class Visit>
void for_each_config_field(Cfg& cfg, Visit&& visit) {
  static_assert(std::is_same_v<std::remove_const_t<Cfg>, ScenarioConfig>);
  constexpr Runners kBoth = Runners::kBoth;
  constexpr Runners kSerialOnly = Runners::kSerialOnly;
  auto& [seed, overlay, probing, weights, good_strategy, lookahead_depth, pair_count,
         connections_per_pair, responder_zipf, p_f_lo, p_f_hi, tau, termination, p_forward,
         ttl_hops, warmup, pair_start_window, connection_interval_mean, adversary, fault,
         async_setup, data_phase, path_builder, engine_window, engine_shards, bank_partitions,
         view_refresh, transport] = cfg;
  auto& [node_count, degree, malicious_fraction, malicious_always_online, participation_cost,
         churn, link] = overlay;
  auto& [join_interarrival_mean, session_median, session_min, session_max, offline_gap_mean,
         departure_probability] = churn;
  auto& [bandwidth_lo, bandwidth_hi, cost_scale, payload_size, propagation_delay] = link;
  auto& [period] = probing;
  auto& [w_selectivity, w_availability] = weights;
  auto& [drop_probability] = adversary;
  auto& [link_loss, delay_jitter, crash_rate_per_hour, crash_recovery_mean, probe_false_negative,
         bank] = fault;
  auto& [lifecycle, claim_loss, claim_delay_mean, initiator_crash, forwarder_crash,
         claim_deadline, close_after, claim_spread] = bank;
  auto& [attempt_deadline] = async_setup;
  auto& [duration, keepalive_interval] = data_phase;
  auto& [max_forwarders, allow_declines] = path_builder;

  visit("seed", seed, kBoth);
  visit("overlay.node_count", node_count, kBoth);
  visit("overlay.degree", degree, kBoth);
  visit("overlay.malicious_fraction", malicious_fraction, kBoth);
  visit("overlay.malicious_always_online", malicious_always_online, kSerialOnly);
  visit("overlay.participation_cost", participation_cost, kBoth);
  visit("overlay.churn.join_interarrival_mean", join_interarrival_mean, kSerialOnly);
  visit("overlay.churn.session_median", session_median, kBoth);
  visit("overlay.churn.session_min", session_min, kBoth);
  visit("overlay.churn.session_max", session_max, kBoth);
  visit("overlay.churn.offline_gap_mean", offline_gap_mean, kBoth);
  visit("overlay.churn.departure_probability", departure_probability, kBoth);
  visit("overlay.link.bandwidth_lo", bandwidth_lo, kBoth);
  visit("overlay.link.bandwidth_hi", bandwidth_hi, kBoth);
  visit("overlay.link.cost_scale", cost_scale, kBoth);
  visit("overlay.link.payload_size", payload_size, kBoth);
  visit("overlay.link.propagation_delay", propagation_delay, kBoth);
  visit("probing.period", period, kBoth);
  visit("weights.w_selectivity", w_selectivity, kBoth);
  visit("weights.w_availability", w_availability, kBoth);
  visit("good_strategy", good_strategy, kBoth);
  visit("lookahead_depth", lookahead_depth, kBoth);
  visit("pair_count", pair_count, kBoth);
  visit("connections_per_pair", connections_per_pair, kBoth);
  visit("responder_zipf", responder_zipf, kBoth);
  visit("p_f_lo", p_f_lo, kBoth);
  visit("p_f_hi", p_f_hi, kBoth);
  visit("tau", tau, kBoth);
  visit("termination", termination, kBoth);
  visit("p_forward", p_forward, kBoth);
  visit("ttl_hops", ttl_hops, kBoth);
  visit("warmup", warmup, kBoth);
  visit("pair_start_window", pair_start_window, kBoth);
  visit("connection_interval_mean", connection_interval_mean, kBoth);
  visit("adversary.drop_probability", drop_probability, kSerialOnly);
  visit("fault.link_loss", link_loss, kBoth);
  visit("fault.delay_jitter", delay_jitter, kSerialOnly);
  visit("fault.crash_rate_per_hour", crash_rate_per_hour, kSerialOnly);
  // Unread at K > 1, but it changes nothing while crash_rate_per_hour (the
  // only source of crashes to recover from) is refused there.
  visit("fault.crash_recovery_mean", crash_recovery_mean, kBoth);
  visit("fault.probe_false_negative", probe_false_negative, kSerialOnly);
  visit("fault.bank.lifecycle", lifecycle, kBoth);
  visit("fault.bank.claim_loss", claim_loss, kBoth);
  visit("fault.bank.claim_delay_mean", claim_delay_mean, kSerialOnly);
  visit("fault.bank.initiator_crash", initiator_crash, kBoth);
  visit("fault.bank.forwarder_crash", forwarder_crash, kBoth);
  visit("fault.bank.claim_deadline", claim_deadline, kBoth);
  visit("fault.bank.close_after", close_after, kSerialOnly);
  visit("fault.bank.claim_spread", claim_spread, kSerialOnly);
  visit("async_setup.attempt_deadline", attempt_deadline, kSerialOnly);
  visit("data_phase.duration", duration, kSerialOnly);
  visit("data_phase.keepalive_interval", keepalive_interval, kSerialOnly);
  visit("path_builder.max_forwarders", max_forwarders, kBoth);
  visit("path_builder.allow_declines", allow_declines, kBoth);
  visit("engine_window", engine_window, kBoth);
  visit("engine_shards", engine_shards, kBoth);
  visit("bank_partitions", bank_partitions, kBoth);
  visit("view_refresh", view_refresh, kBoth);
}

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

/// ScenarioConfig{} with `seed`: the member defaults are the paper's §3 setup
/// (N = 40, d = 5, 100 pairs, 20 connections each, P_f ~ U[50, 100], tau = 2,
/// w_s = w_a = 0.5, Pareto sessions with median 60 min).
[[nodiscard]] ScenarioConfig paper_default_config(std::uint64_t seed = 1);

}  // namespace p2panon::harness
