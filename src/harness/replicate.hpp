// Replicated experiments: run a scenario across independent seeds in
// parallel and aggregate means, confidence intervals and pooled samples.
//
// Replicates are the parallelism unit (see src/parallel): each replicate is
// a fully independent single-threaded simulation with seed = base_seed +
// replicate index, so results are bitwise-identical regardless of thread
// count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "harness/adaptive.hpp"
#include "harness/scenario.hpp"
#include "metrics/stats.hpp"
#include "parallel/thread_pool.hpp"

namespace p2panon::harness {

struct ReplicatedResult {
  std::size_t replicates = 0;

  /// Across-replicate accumulators of per-replicate means.
  metrics::Accumulator good_payoff;    ///< whole-experiment total per good node
  metrics::Accumulator member_payoff;  ///< per-(pair, good member) — the paper's payoff
  metrics::Accumulator forwarder_set_size;
  metrics::Accumulator avg_path_length;
  metrics::Accumulator path_quality;
  metrics::Accumulator initiator_utility;
  metrics::Accumulator initiator_spend;
  metrics::Accumulator routing_efficiency;
  metrics::Accumulator connection_latency;

  /// Pooled per-node payoff samples across replicates.
  std::vector<double> pooled_good_payoffs;
  /// Pooled per-(pair, good member) payoff samples (CDF Figs. 6-7).
  std::vector<double> pooled_member_payoffs;

  /// Prop. 1 curve: mean new-edge fraction by connection index.
  std::vector<metrics::Accumulator> new_edge_fraction_by_conn;

  std::uint64_t total_reformations = 0;
  std::uint64_t total_churn_events = 0;
  bool all_payments_conserved = true;

  // --- Fault/robustness aggregates (all zero outside fault mode).
  metrics::Accumulator delivery_ratio;  ///< per-replicate data-phase ratio
  metrics::Accumulator setup_time;      ///< pooled per-setup samples (merge)
  metrics::Accumulator time_to_detect;  ///< pooled per-failure samples (merge)
  std::uint64_t total_connections_completed = 0;
  std::uint64_t total_connections_failed = 0;
  std::uint64_t total_setup_attempts = 0;
  std::uint64_t total_ack_timeouts = 0;
  std::uint64_t total_crashes = 0;
  std::uint64_t total_messages_dropped = 0;
  std::uint64_t total_keepalives_sent = 0;
  std::uint64_t total_keepalives_delivered = 0;

  // --- Simulation-engine totals across replicates (see ScenarioResult).
  std::uint64_t total_engine_events_scheduled = 0;
  std::uint64_t total_engine_events_cancelled = 0;
  std::uint64_t total_engine_events_fired = 0;
  std::uint64_t total_engine_callback_heap_allocs = 0;
  std::uint64_t total_engine_cross_shard_messages = 0;
  std::uint64_t total_engine_window_barriers = 0;

  // --- Settlement-lifecycle totals across replicates (see ScenarioResult).
  std::uint64_t total_settlements_closed = 0;
  std::uint64_t total_settlements_abandoned = 0;
  std::uint64_t total_settlements_expired = 0;
  std::uint64_t total_settlements_prorata = 0;
  std::uint64_t total_claims_submitted = 0;
  std::uint64_t total_claims_lost = 0;
  std::uint64_t total_claims_rejected = 0;
  std::uint64_t total_claims_after_terminal = 0;
  std::int64_t total_settlement_escrow_milli = 0;
  std::int64_t total_settlement_paid_milli = 0;
  std::int64_t total_settlement_refunded_milli = 0;
  bool all_settlements_reconciled = true;

  // --- Transport-plane totals across replicates (see ScenarioResult).
  std::uint64_t total_transport_frames_sent = 0;
  std::uint64_t total_transport_frames_delivered = 0;
  std::uint64_t total_transport_frames_dropped = 0;
  std::uint64_t total_transport_frames_rejected = 0;

  [[nodiscard]] metrics::ConfidenceInterval good_payoff_ci(double confidence = 0.95) const {
    return metrics::confidence_interval(good_payoff, confidence);
  }
  [[nodiscard]] metrics::ConfidenceInterval member_payoff_ci(double confidence = 0.95) const {
    return metrics::confidence_interval(member_payoff, confidence);
  }
  [[nodiscard]] metrics::ConfidenceInterval forwarder_set_ci(double confidence = 0.95) const {
    return metrics::confidence_interval(forwarder_set_size, confidence);
  }
};

/// Merge rules of the ReplicatedResult field table.
namespace rule {
struct Sum {};      ///< exact counter: add the replicate's count
struct And {};      ///< invariant flag: true only if every replicate held it
struct AddMean {};  ///< across-replicate accumulator of per-replicate means
struct Merge {};    ///< pooled per-event samples: Accumulator::merge
}  // namespace rule

/// The ReplicatedResult field table: calls
/// `row(key, &ReplicatedResult::member, source, rule)` once per field, where
/// `key` names the field in checkpoints and `source` is the ScenarioResult
/// member (or getter) each replicate contributes. The fold, the checkpoint
/// codec and the determinism tests all loop over this table, so a new field
/// needs one row here. Pooled samples and the new-edge-fraction curve are
/// vectors and keep their explicit code.
template <class Row>
void for_each_result_field(Row&& row) {
  using R = ReplicatedResult;
  using S = ScenarioResult;
  row("good_payoff", &R::good_payoff, &S::good_payoff, rule::AddMean{});
  row("member_payoff", &R::member_payoff, &S::member_payoff, rule::AddMean{});
  row("forwarder_set_size", &R::forwarder_set_size, &S::forwarder_set_size, rule::AddMean{});
  row("avg_path_length", &R::avg_path_length, &S::avg_path_length, rule::AddMean{});
  row("path_quality", &R::path_quality, &S::path_quality, rule::AddMean{});
  row("initiator_utility", &R::initiator_utility, &S::initiator_utility, rule::AddMean{});
  row("initiator_spend", &R::initiator_spend, &S::initiator_spend, rule::AddMean{});
  row("routing_efficiency", &R::routing_efficiency, &S::routing_efficiency, rule::AddMean{});
  row("connection_latency", &R::connection_latency, &S::connection_latency, rule::AddMean{});
  row("delivery_ratio", &R::delivery_ratio, &S::delivery_ratio, rule::AddMean{});
  row("setup_time", &R::setup_time, &S::setup_time, rule::Merge{});
  row("time_to_detect", &R::time_to_detect, &S::time_to_detect, rule::Merge{});
  row("total_reformations", &R::total_reformations, &S::reformations, rule::Sum{});
  row("total_churn_events", &R::total_churn_events, &S::churn_events, rule::Sum{});
  row("all_payments_conserved", &R::all_payments_conserved, &S::payment_conserved, rule::And{});
  row("total_connections_completed", &R::total_connections_completed,
      &S::connections_completed, rule::Sum{});
  row("total_connections_failed", &R::total_connections_failed, &S::connections_failed,
      rule::Sum{});
  row("total_setup_attempts", &R::total_setup_attempts, &S::setup_attempts, rule::Sum{});
  row("total_ack_timeouts", &R::total_ack_timeouts, &S::setup_ack_timeouts, rule::Sum{});
  row("total_crashes", &R::total_crashes, &S::crashes, rule::Sum{});
  row("total_messages_dropped", &R::total_messages_dropped, &S::messages_dropped, rule::Sum{});
  row("total_keepalives_sent", &R::total_keepalives_sent, &S::keepalives_sent, rule::Sum{});
  row("total_keepalives_delivered", &R::total_keepalives_delivered, &S::keepalives_delivered,
      rule::Sum{});
  row("total_engine_events_scheduled", &R::total_engine_events_scheduled,
      &S::engine_events_scheduled, rule::Sum{});
  row("total_engine_events_cancelled", &R::total_engine_events_cancelled,
      &S::engine_events_cancelled, rule::Sum{});
  row("total_engine_events_fired", &R::total_engine_events_fired, &S::engine_events_fired,
      rule::Sum{});
  row("total_engine_callback_heap_allocs", &R::total_engine_callback_heap_allocs,
      &S::engine_callback_heap_allocs, rule::Sum{});
  row("total_engine_cross_shard_messages", &R::total_engine_cross_shard_messages,
      &S::engine_cross_shard_messages, rule::Sum{});
  row("total_engine_window_barriers", &R::total_engine_window_barriers,
      &S::engine_window_barriers, rule::Sum{});
  row("total_settlements_closed", &R::total_settlements_closed, &S::settlements_closed,
      rule::Sum{});
  row("total_settlements_abandoned", &R::total_settlements_abandoned, &S::settlements_abandoned,
      rule::Sum{});
  row("total_settlements_expired", &R::total_settlements_expired, &S::settlements_expired,
      rule::Sum{});
  row("total_settlements_prorata", &R::total_settlements_prorata, &S::settlements_prorata,
      rule::Sum{});
  row("total_claims_submitted", &R::total_claims_submitted, &S::claims_submitted, rule::Sum{});
  row("total_claims_lost", &R::total_claims_lost, &S::claims_lost, rule::Sum{});
  row("total_claims_rejected", &R::total_claims_rejected, &S::claims_rejected, rule::Sum{});
  row("total_claims_after_terminal", &R::total_claims_after_terminal,
      &S::claims_after_terminal, rule::Sum{});
  row("total_settlement_escrow_milli", &R::total_settlement_escrow_milli,
      &S::settlement_escrow_milli, rule::Sum{});
  row("total_settlement_paid_milli", &R::total_settlement_paid_milli, &S::settlement_paid_milli,
      rule::Sum{});
  row("total_settlement_refunded_milli", &R::total_settlement_refunded_milli,
      &S::settlement_refunded_milli, rule::Sum{});
  row("all_settlements_reconciled", &R::all_settlements_reconciled, &S::settlement_reconciled,
      rule::And{});
  row("total_transport_frames_sent", &R::total_transport_frames_sent,
      &S::transport_frames_sent, rule::Sum{});
  row("total_transport_frames_delivered", &R::total_transport_frames_delivered,
      &S::transport_frames_delivered, rule::Sum{});
  row("total_transport_frames_dropped", &R::total_transport_frames_dropped,
      &S::transport_frames_dropped, rule::Sum{});
  row("total_transport_frames_rejected", &R::total_transport_frames_rejected,
      &S::transport_frames_rejected, rule::Sum{});
}

/// Run `replicates` independent replicates of `base` (seed = base.seed + r).
/// `pool` may be nullptr for serial execution.
[[nodiscard]] ReplicatedResult run_replicated(const ScenarioConfig& base, std::size_t replicates,
                                              parallel::ThreadPool* pool = nullptr);

// --- Adaptive sequential stopping over full scenario replicates ------------
// (see adaptive.hpp for the generic per-sample runner and DESIGN.md §3.12
// for the stopping math).

/// One stopping target inside a ReplicatedResult: a pointer-to-member
/// selecting which across-replicate accumulator the anytime interval is
/// computed on. `eps <= 0` falls back to AdaptiveConfig::eps; `relative`
/// makes eps a fraction of |mean|.
struct TrackedScenarioMetric {
  std::string name;
  metrics::Accumulator ReplicatedResult::* accumulator = nullptr;
  double eps = 0.0;
  bool relative = false;
};

struct AdaptiveReplicatedResult {
  ReplicatedResult result;
  AdaptiveOutcome outcome;
  /// Anytime confidence intervals for the tracked metrics at the final peek
  /// (same order as `tracked`) — the ±eps claim the early stop rests on.
  std::vector<metrics::ConfidenceInterval> intervals;
};

/// FNV-1a fingerprint over every leaf of the for_each_config_field table, in
/// table order. A checkpoint written under a different fingerprint is
/// discarded on resume, never silently merged.
[[nodiscard]] std::uint64_t config_fingerprint(const ScenarioConfig& cfg) noexcept;

/// run_replicated under the options of `adaptive` (see run_batches).
///
/// With `adaptive.adaptive` off and no checkpoint path, this is
/// run_replicated(base, planned, pool), and `intervals` are the plain
/// confidence intervals. With adaptivity on, replication stops at the first
/// batch boundary where every tracked metric's anytime interval is within
/// ±eps (planned stays the hard cap). With a checkpoint path set, the full
/// ReplicatedResult state is persisted after every batch under
/// "r.<cell_key>." and a killed run resumes bit-exactly.
[[nodiscard]] AdaptiveReplicatedResult run_replicated_adaptive(
    const ScenarioConfig& base, std::size_t planned, const AdaptiveConfig& adaptive,
    const std::vector<TrackedScenarioMetric>& tracked, parallel::ThreadPool* pool = nullptr,
    const std::string& cell_key = "cell");

}  // namespace p2panon::harness
