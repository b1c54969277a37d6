#include "harness/replicate.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "harness/checkpoint.hpp"
#include "parallel/parallel_for.hpp"

namespace p2panon::harness {

namespace {

/// Fold one replicate into the aggregate. Shared verbatim by the fixed and
/// adaptive paths — identical operation order is what makes adaptivity (and
/// kill/resume) bitwise-inert relative to run_replicated.
void accumulate_result(ReplicatedResult& agg, const ScenarioResult& r) {
  agg.good_payoff.add(r.good_payoff.mean());
  agg.member_payoff.add(r.member_payoff.mean());
  agg.pooled_member_payoffs.insert(agg.pooled_member_payoffs.end(),
                                   r.member_payoff_samples.begin(),
                                   r.member_payoff_samples.end());
  agg.forwarder_set_size.add(r.forwarder_set_size.mean());
  agg.avg_path_length.add(r.avg_path_length.mean());
  agg.path_quality.add(r.path_quality.mean());
  agg.initiator_utility.add(r.initiator_utility.mean());
  agg.initiator_spend.add(r.initiator_spend.mean());
  agg.connection_latency.add(r.connection_latency.mean());
  agg.routing_efficiency.add(r.routing_efficiency);
  agg.pooled_good_payoffs.insert(agg.pooled_good_payoffs.end(),
                                 r.good_payoff_samples.begin(), r.good_payoff_samples.end());
  for (std::size_t j = 0;
       j < r.new_edge_fraction_by_conn.size() && j < agg.new_edge_fraction_by_conn.size();
       ++j) {
    if (r.new_edge_fraction_by_conn[j].count() > 0) {
      agg.new_edge_fraction_by_conn[j].add(r.new_edge_fraction_by_conn[j].mean());
    }
  }
  agg.total_reformations += r.reformations;
  agg.total_churn_events += r.churn_events;
  agg.all_payments_conserved = agg.all_payments_conserved && r.payment_conserved;
  agg.delivery_ratio.add(r.delivery_ratio());
  agg.setup_time.merge(r.setup_time);
  agg.time_to_detect.merge(r.time_to_detect);
  agg.total_connections_completed += r.connections_completed;
  agg.total_connections_failed += r.connections_failed;
  agg.total_setup_attempts += r.setup_attempts;
  agg.total_ack_timeouts += r.setup_ack_timeouts;
  agg.total_crashes += r.crashes;
  agg.total_messages_dropped += r.messages_dropped;
  agg.total_keepalives_sent += r.keepalives_sent;
  agg.total_keepalives_delivered += r.keepalives_delivered;
  agg.total_engine_events_scheduled += r.engine_events_scheduled;
  agg.total_engine_events_cancelled += r.engine_events_cancelled;
  agg.total_engine_events_fired += r.engine_events_fired;
  agg.total_engine_callback_heap_allocs += r.engine_callback_heap_allocs;
  agg.total_engine_cross_shard_messages += r.engine_cross_shard_messages;
  agg.total_engine_window_barriers += r.engine_window_barriers;
  agg.total_settlements_closed += r.settlements_closed;
  agg.total_settlements_abandoned += r.settlements_abandoned;
  agg.total_settlements_expired += r.settlements_expired;
  agg.total_settlements_prorata += r.settlements_prorata;
  agg.total_claims_submitted += r.claims_submitted;
  agg.total_claims_lost += r.claims_lost;
  agg.total_claims_rejected += r.claims_rejected;
  agg.total_claims_after_terminal += r.claims_after_terminal;
  agg.total_settlement_escrow_milli += r.settlement_escrow_milli;
  agg.total_settlement_paid_milli += r.settlement_paid_milli;
  agg.total_settlement_refunded_milli += r.settlement_refunded_milli;
  agg.all_settlements_reconciled = agg.all_settlements_reconciled && r.settlement_reconciled;
  agg.total_transport_frames_sent += r.transport_frames_sent;
  agg.total_transport_frames_delivered += r.transport_frames_delivered;
  agg.total_transport_frames_dropped += r.transport_frames_dropped;
  agg.total_transport_frames_rejected += r.transport_frames_rejected;
  agg.total_transport_reconnects += r.transport_reconnects;
  agg.total_transport_backoff_retries += r.transport_backoff_retries;
  agg.total_transport_heartbeat_timeouts += r.transport_heartbeat_timeouts;
  agg.total_transport_deadline_expiries += r.transport_deadline_expiries;
}

// --- Bit-exact ReplicatedResult <-> Checkpoint codec -----------------------
// Table-driven over pointer-to-member so a ReplicatedResult field added
// without a codec entry is a one-line fix, not a parallel serializer to
// keep in sync by hand.

struct AccField {
  const char* key;
  metrics::Accumulator ReplicatedResult::* member;
};
constexpr AccField kAccFields[] = {
    {"good_payoff", &ReplicatedResult::good_payoff},
    {"member_payoff", &ReplicatedResult::member_payoff},
    {"forwarder_set_size", &ReplicatedResult::forwarder_set_size},
    {"avg_path_length", &ReplicatedResult::avg_path_length},
    {"path_quality", &ReplicatedResult::path_quality},
    {"initiator_utility", &ReplicatedResult::initiator_utility},
    {"initiator_spend", &ReplicatedResult::initiator_spend},
    {"routing_efficiency", &ReplicatedResult::routing_efficiency},
    {"connection_latency", &ReplicatedResult::connection_latency},
    {"delivery_ratio", &ReplicatedResult::delivery_ratio},
    {"setup_time", &ReplicatedResult::setup_time},
    {"time_to_detect", &ReplicatedResult::time_to_detect},
};

struct U64Field {
  const char* key;
  std::uint64_t ReplicatedResult::* member;
};
constexpr U64Field kU64Fields[] = {
    {"total_reformations", &ReplicatedResult::total_reformations},
    {"total_churn_events", &ReplicatedResult::total_churn_events},
    {"total_connections_completed", &ReplicatedResult::total_connections_completed},
    {"total_connections_failed", &ReplicatedResult::total_connections_failed},
    {"total_setup_attempts", &ReplicatedResult::total_setup_attempts},
    {"total_ack_timeouts", &ReplicatedResult::total_ack_timeouts},
    {"total_crashes", &ReplicatedResult::total_crashes},
    {"total_messages_dropped", &ReplicatedResult::total_messages_dropped},
    {"total_keepalives_sent", &ReplicatedResult::total_keepalives_sent},
    {"total_keepalives_delivered", &ReplicatedResult::total_keepalives_delivered},
    {"total_engine_events_scheduled", &ReplicatedResult::total_engine_events_scheduled},
    {"total_engine_events_cancelled", &ReplicatedResult::total_engine_events_cancelled},
    {"total_engine_events_fired", &ReplicatedResult::total_engine_events_fired},
    {"total_engine_callback_heap_allocs", &ReplicatedResult::total_engine_callback_heap_allocs},
    {"total_engine_cross_shard_messages", &ReplicatedResult::total_engine_cross_shard_messages},
    {"total_engine_window_barriers", &ReplicatedResult::total_engine_window_barriers},
    {"total_settlements_closed", &ReplicatedResult::total_settlements_closed},
    {"total_settlements_abandoned", &ReplicatedResult::total_settlements_abandoned},
    {"total_settlements_expired", &ReplicatedResult::total_settlements_expired},
    {"total_settlements_prorata", &ReplicatedResult::total_settlements_prorata},
    {"total_claims_submitted", &ReplicatedResult::total_claims_submitted},
    {"total_claims_lost", &ReplicatedResult::total_claims_lost},
    {"total_claims_rejected", &ReplicatedResult::total_claims_rejected},
    {"total_claims_after_terminal", &ReplicatedResult::total_claims_after_terminal},
    {"total_transport_frames_sent", &ReplicatedResult::total_transport_frames_sent},
    {"total_transport_frames_delivered", &ReplicatedResult::total_transport_frames_delivered},
    {"total_transport_frames_dropped", &ReplicatedResult::total_transport_frames_dropped},
    {"total_transport_frames_rejected", &ReplicatedResult::total_transport_frames_rejected},
    {"total_transport_reconnects", &ReplicatedResult::total_transport_reconnects},
    {"total_transport_backoff_retries", &ReplicatedResult::total_transport_backoff_retries},
    {"total_transport_heartbeat_timeouts",
     &ReplicatedResult::total_transport_heartbeat_timeouts},
    {"total_transport_deadline_expiries",
     &ReplicatedResult::total_transport_deadline_expiries},
};

struct I64Field {
  const char* key;
  std::int64_t ReplicatedResult::* member;
};
constexpr I64Field kI64Fields[] = {
    {"total_settlement_escrow_milli", &ReplicatedResult::total_settlement_escrow_milli},
    {"total_settlement_paid_milli", &ReplicatedResult::total_settlement_paid_milli},
    {"total_settlement_refunded_milli", &ReplicatedResult::total_settlement_refunded_milli},
};

struct BoolField {
  const char* key;
  bool ReplicatedResult::* member;
};
constexpr BoolField kBoolFields[] = {
    {"all_payments_conserved", &ReplicatedResult::all_payments_conserved},
    {"all_settlements_reconciled", &ReplicatedResult::all_settlements_reconciled},
};

std::string encode_acc(const metrics::Accumulator& acc) {
  const auto raw = acc.raw();
  std::ostringstream out;
  out << encode_u64(raw.n) << " " << encode_u64(raw.mean_bits) << " " << encode_u64(raw.m2_bits)
      << " " << encode_u64(raw.min_bits) << " " << encode_u64(raw.max_bits);
  return out.str();
}

bool decode_acc(const std::string& text, metrics::Accumulator& out) {
  std::istringstream in(text);
  std::string n, mean, m2, mn, mx;
  if (!(in >> n >> mean >> m2 >> mn >> mx)) return false;
  const auto nv = decode_u64(n);
  const auto meanv = decode_u64(mean);
  const auto m2v = decode_u64(m2);
  const auto mnv = decode_u64(mn);
  const auto mxv = decode_u64(mx);
  if (!nv || !meanv || !m2v || !mnv || !mxv) return false;
  out = metrics::Accumulator::from_raw({*nv, *meanv, *m2v, *mnv, *mxv});
  return true;
}

std::string encode_samples(const std::vector<double>& samples) {
  std::ostringstream out;
  out << encode_u64(samples.size());
  for (const double x : samples) out << " " << encode_double(x);
  return out.str();
}

bool decode_samples(const std::string& text, std::vector<double>& out) {
  std::istringstream in(text);
  std::string tok;
  if (!(in >> tok)) return false;
  const auto count = decode_u64(tok);
  if (!count) return false;
  out.clear();
  out.reserve(static_cast<std::size_t>(*count));
  for (std::uint64_t i = 0; i < *count; ++i) {
    if (!(in >> tok)) return false;
    const auto x = decode_double(tok);
    if (!x) return false;
    out.push_back(*x);
  }
  return !(in >> tok);  // trailing tokens = corrupt record
}

void encode_replicated(Checkpoint& ckpt, const std::string& prefix, const ReplicatedResult& r) {
  ckpt.set(prefix + "replicates", encode_u64(r.replicates));
  for (const AccField& f : kAccFields) ckpt.set(prefix + f.key, encode_acc(r.*f.member));
  for (const U64Field& f : kU64Fields) ckpt.set(prefix + f.key, encode_u64(r.*f.member));
  for (const I64Field& f : kI64Fields) {
    ckpt.set(prefix + f.key, encode_u64(static_cast<std::uint64_t>(r.*f.member)));
  }
  for (const BoolField& f : kBoolFields) ckpt.set(prefix + f.key, (r.*f.member) ? "1" : "0");
  ckpt.set(prefix + "pooled_good", encode_samples(r.pooled_good_payoffs));
  ckpt.set(prefix + "pooled_member", encode_samples(r.pooled_member_payoffs));
  ckpt.set(prefix + "nef.count", encode_u64(r.new_edge_fraction_by_conn.size()));
  for (std::size_t j = 0; j < r.new_edge_fraction_by_conn.size(); ++j) {
    ckpt.set(prefix + "nef." + std::to_string(j), encode_acc(r.new_edge_fraction_by_conn[j]));
  }
}

bool decode_replicated(const Checkpoint& ckpt, const std::string& prefix, ReplicatedResult& r) {
  const auto get = [&](const std::string& key) { return ckpt.find(prefix + key); };
  const std::string* reps = get("replicates");
  if (reps == nullptr) return false;
  const auto reps_v = decode_u64(*reps);
  if (!reps_v) return false;
  r.replicates = static_cast<std::size_t>(*reps_v);
  for (const AccField& f : kAccFields) {
    const std::string* v = get(f.key);
    if (v == nullptr || !decode_acc(*v, r.*f.member)) return false;
  }
  for (const U64Field& f : kU64Fields) {
    const std::string* v = get(f.key);
    if (v == nullptr) return false;
    const auto x = decode_u64(*v);
    if (!x) return false;
    r.*f.member = *x;
  }
  for (const I64Field& f : kI64Fields) {
    const std::string* v = get(f.key);
    if (v == nullptr) return false;
    const auto x = decode_u64(*v);
    if (!x) return false;
    r.*f.member = static_cast<std::int64_t>(*x);
  }
  for (const BoolField& f : kBoolFields) {
    const std::string* v = get(f.key);
    if (v == nullptr || (*v != "0" && *v != "1")) return false;
    r.*f.member = (*v == "1");
  }
  const std::string* pg = get("pooled_good");
  const std::string* pm = get("pooled_member");
  if (pg == nullptr || !decode_samples(*pg, r.pooled_good_payoffs)) return false;
  if (pm == nullptr || !decode_samples(*pm, r.pooled_member_payoffs)) return false;
  const std::string* nef_count = get("nef.count");
  if (nef_count == nullptr) return false;
  const auto nef_n = decode_u64(*nef_count);
  if (!nef_n) return false;
  r.new_edge_fraction_by_conn.assign(static_cast<std::size_t>(*nef_n), {});
  for (std::size_t j = 0; j < r.new_edge_fraction_by_conn.size(); ++j) {
    const std::string* v = get("nef." + std::to_string(j));
    if (v == nullptr || !decode_acc(*v, r.new_edge_fraction_by_conn[j])) return false;
  }
  return true;
}

}  // namespace

ReplicatedResult run_replicated(const ScenarioConfig& base, std::size_t replicates,
                                parallel::ThreadPool* pool) {
  std::vector<ScenarioResult> results(replicates);

  auto run_one = [&base](std::size_t r) {
    ScenarioConfig cfg = base;
    cfg.seed = base.seed + r;
    return ScenarioRunner(cfg).run();
  };

  if (pool != nullptr) {
    parallel::parallel_for(*pool, 0, replicates,
                           [&](std::size_t r) { results[r] = run_one(r); });
  } else {
    for (std::size_t r = 0; r < replicates; ++r) results[r] = run_one(r);
  }

  // Deterministic aggregation order: replicate index ascending.
  ReplicatedResult agg;
  agg.replicates = replicates;
  agg.new_edge_fraction_by_conn.resize(base.connections_per_pair);
  for (const ScenarioResult& r : results) accumulate_result(agg, r);
  return agg;
}

std::uint64_t config_fingerprint(const ScenarioConfig& cfg) noexcept {
  std::uint64_t h = fnv1a_init();
  const auto mix_u = [&](std::uint64_t v) { h = fnv1a_mix(h, v); };
  const auto mix_d = [&](double v) { h = fnv1a_double(h, v); };

  mix_u(cfg.seed);
  mix_u(cfg.overlay.node_count);
  mix_u(cfg.overlay.degree);
  mix_d(cfg.overlay.malicious_fraction);
  mix_u(cfg.overlay.malicious_always_online ? 1 : 0);
  mix_d(cfg.overlay.participation_cost);
  mix_d(cfg.overlay.churn.join_interarrival_mean);
  mix_d(cfg.overlay.churn.session_median);
  mix_d(cfg.overlay.churn.session_min);
  mix_d(cfg.overlay.churn.session_max);
  mix_d(cfg.overlay.churn.offline_gap_mean);
  mix_d(cfg.overlay.churn.departure_probability);
  mix_d(cfg.overlay.link.bandwidth_lo);
  mix_d(cfg.overlay.link.bandwidth_hi);
  mix_d(cfg.overlay.link.cost_scale);
  mix_d(cfg.overlay.link.payload_size);
  mix_d(cfg.overlay.link.propagation_delay);
  mix_d(cfg.probing.period);
  mix_d(cfg.weights.w_selectivity);
  mix_d(cfg.weights.w_availability);
  mix_u(static_cast<std::uint64_t>(cfg.good_strategy));
  mix_u(cfg.lookahead_depth);
  mix_u(cfg.pair_count);
  mix_u(cfg.connections_per_pair);
  mix_d(cfg.responder_zipf);
  mix_u(cfg.cid_rotation);
  mix_d(cfg.p_f_lo);
  mix_d(cfg.p_f_hi);
  mix_d(cfg.tau);
  mix_u(static_cast<std::uint64_t>(cfg.termination));
  mix_d(cfg.p_forward);
  mix_u(cfg.ttl_hops);
  mix_d(cfg.warmup);
  mix_d(cfg.pair_start_window);
  mix_d(cfg.connection_interval_mean);
  mix_d(cfg.adversary.drop_probability);
  mix_u(cfg.adversary.max_retries);
  mix_u(cfg.history_capacity);
  mix_d(cfg.fault.link_loss);
  mix_d(cfg.fault.delay_jitter);
  mix_d(cfg.fault.crash_rate_per_hour);
  mix_d(cfg.fault.crash_recovery_mean);
  mix_d(cfg.fault.probe_false_negative);
  mix_u(cfg.fault.partitions.size());
  for (const fault::PartitionWindow& w : cfg.fault.partitions) {
    mix_d(w.start);
    mix_d(w.end);
  }
  mix_u(cfg.fault.bank.lifecycle ? 1 : 0);
  mix_d(cfg.fault.bank.claim_loss);
  mix_d(cfg.fault.bank.claim_delay_mean);
  mix_d(cfg.fault.bank.initiator_crash);
  mix_d(cfg.fault.bank.forwarder_crash);
  mix_d(cfg.fault.bank.claim_deadline);
  mix_d(cfg.fault.bank.close_after);
  mix_d(cfg.fault.bank.claim_spread);
  mix_d(cfg.async_setup.backoff_base);
  mix_d(cfg.async_setup.backoff_cap);
  mix_d(cfg.async_setup.backoff_jitter);
  mix_u(cfg.async_setup.max_attempts);
  mix_d(cfg.async_setup.ack_timeout_factor);
  mix_d(cfg.async_setup.ack_timeout_slack);
  mix_d(cfg.async_setup.attempt_deadline);
  mix_d(cfg.data_phase.duration);
  mix_d(cfg.data_phase.keepalive_interval);
  mix_d(cfg.data_phase.ack_timeout_factor);
  mix_d(cfg.data_phase.ack_timeout_slack);
  mix_u(cfg.data_phase.max_reformations);
  mix_d(cfg.suspicion_penalty);
  mix_d(cfg.initial_balance_credits);
  mix_u(static_cast<std::uint64_t>(cfg.anonymity.form));
  mix_d(cfg.anonymity.scale);
  mix_d(cfg.anonymity.lambda);
  mix_u(cfg.path_builder.max_forwarders);
  mix_u(cfg.path_builder.allow_declines ? 1 : 0);
  mix_d(cfg.engine_window);
  mix_u(cfg.engine_shards);
  mix_u(cfg.bank_partitions);
  mix_d(cfg.view_refresh);
  return h;
}

AdaptiveReplicatedResult run_replicated_adaptive(const ScenarioConfig& base, std::size_t planned,
                                                 const AdaptiveConfig& adaptive,
                                                 const std::vector<TrackedScenarioMetric>& tracked,
                                                 parallel::ThreadPool* pool,
                                                 const std::string& cell_key) {
  // Fast path: nothing adaptive, nothing persisted — defer to the fixed
  // runner so this wrapper is provably inert when its features are off.
  AdaptiveReplicatedResult out;
  out.outcome.replicates_planned = planned;

  std::uint64_t fp = config_fingerprint(base);
  for (const TrackedScenarioMetric& t : tracked) fp = fnv1a_bytes(fp, t.name);
  fp = fnv1a_mix(fp, static_cast<std::uint64_t>(planned));

  const bool use_ckpt = !adaptive.checkpoint.empty();
  if (!adaptive.adaptive && !use_ckpt) {
    out.result = run_replicated(base, planned, pool);
    out.outcome.replicates_used = planned;
    out.outcome.batches = planned > 0 ? 1 : 0;
    out.outcome.complete = true;
    for (const TrackedScenarioMetric& t : tracked) {
      out.intervals.push_back(metrics::confidence_interval(out.result.*t.accumulator));
    }
    return out;
  }

  ReplicatedResult agg;
  agg.new_edge_fraction_by_conn.resize(base.connections_per_pair);
  std::size_t done = 0;
  std::size_t peeks = 0;
  bool stopped = false;

  const std::filesystem::path ckpt_path = adaptive.checkpoint;
  std::string key;
  for (const char c : cell_key) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    key.push_back(ok ? c : '_');
  }
  const std::string prefix = "r." + (key.empty() ? std::string("cell") : key) + ".";
  Checkpoint ckpt;

  if (use_ckpt) {
    if (auto loaded = Checkpoint::load(ckpt_path)) ckpt = std::move(*loaded);
    const std::string* stored_fp = ckpt.find(prefix + "fp");
    const std::string* d = ckpt.find(prefix + "done");
    const std::string* k = ckpt.find(prefix + "peeks");
    const std::string* st = ckpt.find(prefix + "stopped");
    const std::string* co = ckpt.find(prefix + "complete");
    bool restored = false;
    if (stored_fp != nullptr && decode_u64(*stored_fp) == fp && d != nullptr && k != nullptr &&
        st != nullptr && co != nullptr) {
      const auto done_v = decode_u64(*d);
      const auto peeks_v = decode_u64(*k);
      ReplicatedResult candidate;
      if (done_v && peeks_v && *done_v <= planned &&
          decode_replicated(ckpt, prefix, candidate)) {
        agg = std::move(candidate);
        done = static_cast<std::size_t>(*done_v);
        peeks = static_cast<std::size_t>(*peeks_v);
        stopped = (*st == "1");
        out.outcome.resumed = done > 0;
        restored = true;
        if (*co == "1") {
          out.result = std::move(agg);
          out.outcome.replicates_used = done;
          out.outcome.batches = peeks;
          out.outcome.stopped_early = stopped && done < planned;
          out.outcome.complete = true;
          for (const TrackedScenarioMetric& t : tracked) {
            out.intervals.push_back(metrics::anytime_interval(
                out.result.*t.accumulator, adaptive.alpha, std::max<std::size_t>(peeks, 1),
                std::max<std::size_t>(tracked.size(), 1)));
          }
          return out;
        }
      }
    }
    if (!restored) ckpt.erase_prefix(prefix);  // stale or torn cell state
  }

  auto run_one = [&base](std::size_t r) {
    ScenarioConfig cfg = base;
    cfg.seed = base.seed + r;
    return ScenarioRunner(cfg).run();
  };
  auto build_targets = [&](std::vector<StopTarget>& targets) {
    targets.clear();
    for (const TrackedScenarioMetric& t : tracked) {
      targets.push_back(
          {&(agg.*t.accumulator), t.eps > 0.0 ? t.eps : adaptive.eps, t.relative});
    }
  };

  static std::size_t saves_this_run = 0;  // kill hook counts process-wide saves
  std::vector<StopTarget> targets;
  const std::vector<PassTarget> no_passes;
  while (done < planned && !stopped) {
    std::size_t batch;
    if (!adaptive.adaptive) {
      batch = std::min(planned - done, std::max(adaptive.min_batch, done));
    } else {
      build_targets(targets);
      batch = plan_next_batch(targets, no_passes, adaptive.alpha, peeks + 1, done, planned,
                              adaptive.min_batch);
    }
    batch = std::max<std::size_t>(batch, 1);

    std::vector<ScenarioResult> results(batch);
    if (pool != nullptr) {
      parallel::parallel_for(*pool, 0, batch,
                             [&](std::size_t b) { results[b] = run_one(done + b); });
    } else {
      for (std::size_t b = 0; b < batch; ++b) results[b] = run_one(done + b);
    }
    for (const ScenarioResult& r : results) accumulate_result(agg, r);
    done += batch;
    agg.replicates = done;
    ++peeks;

    if (adaptive.adaptive && done < planned) {
      build_targets(targets);
      stopped = anytime_stop(targets, no_passes, adaptive.alpha, peeks);
    }

    if (use_ckpt) {
      const bool complete = stopped || done >= planned;
      ckpt.set(prefix + "fp", encode_u64(fp));
      ckpt.set(prefix + "done", encode_u64(done));
      ckpt.set(prefix + "peeks", encode_u64(peeks));
      ckpt.set(prefix + "stopped", stopped ? "1" : "0");
      ckpt.set(prefix + "complete", complete ? "1" : "0");
      encode_replicated(ckpt, prefix, agg);
      (void)ckpt.save(ckpt_path);
      ++saves_this_run;
      if (adaptive.kill_after_batches != 0 && saves_this_run >= adaptive.kill_after_batches) {
        std::_Exit(9);  // crash injection; see AdaptiveRunner::run_cell
      }
    }
  }

  out.result = std::move(agg);
  out.outcome.replicates_used = done;
  out.outcome.batches = peeks;
  out.outcome.stopped_early = stopped && done < planned;
  out.outcome.complete = true;
  for (const TrackedScenarioMetric& t : tracked) {
    out.intervals.push_back(metrics::anytime_interval(
        out.result.*t.accumulator, adaptive.alpha, std::max<std::size_t>(peeks, 1),
        std::max<std::size_t>(tracked.size(), 1)));
  }
  return out;
}

}  // namespace p2panon::harness
