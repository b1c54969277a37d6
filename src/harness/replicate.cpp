#include "harness/replicate.hpp"

#include <algorithm>
#include <functional>
#include <sstream>
#include <type_traits>
#include <utility>

#include "harness/checkpoint.hpp"

namespace p2panon::harness {

namespace {

/// Fold one replicate into the aggregate, in replicate-index order.
void accumulate_result(ReplicatedResult& agg, const ScenarioResult& r) {
  for_each_result_field([&](const char*, auto member, auto source, auto how) {
    auto& out = agg.*member;
    const auto& value = std::invoke(source, r);
    using Rule = decltype(how);
    if constexpr (std::is_same_v<Rule, rule::Sum>) {
      out += value;
    } else if constexpr (std::is_same_v<Rule, rule::And>) {
      out = out && value;
    } else if constexpr (std::is_same_v<Rule, rule::Merge>) {
      out.merge(value);
    } else if constexpr (std::is_same_v<std::decay_t<decltype(value)>, metrics::Accumulator>) {
      out.add(value.mean());
    } else {
      out.add(value);  // a per-replicate scalar is its own mean
    }
  });
  agg.pooled_member_payoffs.insert(agg.pooled_member_payoffs.end(),
                                   r.member_payoff_samples.begin(),
                                   r.member_payoff_samples.end());
  agg.pooled_good_payoffs.insert(agg.pooled_good_payoffs.end(),
                                 r.good_payoff_samples.begin(), r.good_payoff_samples.end());
  for (std::size_t j = 0;
       j < r.new_edge_fraction_by_conn.size() && j < agg.new_edge_fraction_by_conn.size();
       ++j) {
    if (r.new_edge_fraction_by_conn[j].count() > 0) {
      agg.new_edge_fraction_by_conn[j].add(r.new_edge_fraction_by_conn[j].mean());
    }
  }
}

// --- Bit-exact ReplicatedResult <-> Checkpoint codec -----------------------

template <class T>
std::string encode_field(const T& v) {
  if constexpr (std::is_same_v<T, metrics::Accumulator>) {
    return encode_accumulator(v);
  } else if constexpr (std::is_same_v<T, bool>) {
    return v ? "1" : "0";
  } else {
    return encode_u64(static_cast<std::uint64_t>(v));  // int64 as two's complement
  }
}

template <class T>
bool decode_field(const std::string& text, T& out) {
  if constexpr (std::is_same_v<T, metrics::Accumulator>) {
    const auto acc = decode_accumulator(text);
    if (acc) out = *acc;
    return acc.has_value();
  } else if constexpr (std::is_same_v<T, bool>) {
    out = (text == "1");
    return text == "0" || text == "1";
  } else {
    const auto v = decode_u64(text);
    if (v) out = static_cast<T>(*v);
    return v.has_value();
  }
}

std::string encode_samples(const std::vector<double>& samples) {
  std::ostringstream out;
  out << encode_u64(samples.size());
  for (const double x : samples) out << " " << encode_double(x);
  return out.str();
}

/// The stored count must match the samples actually present; nothing is
/// sized from it, so a hostile count cannot force a huge allocation.
bool decode_samples(const std::string& text, std::vector<double>& out) {
  std::istringstream in(text);
  std::string tok;
  if (!(in >> tok)) return false;
  const auto count = decode_u64(tok);
  if (!count) return false;
  out.clear();
  while (in >> tok) {
    const auto x = decode_double(tok);
    if (!x || out.size() == *count) return false;
    out.push_back(*x);
  }
  return out.size() == *count;
}

void encode_replicated(Checkpoint& ckpt, const std::string& prefix, const ReplicatedResult& r) {
  ckpt.set(prefix + "replicates", encode_u64(r.replicates));
  for_each_result_field([&](const char* key, auto member, auto, auto) {
    ckpt.set(prefix + key, encode_field(r.*member));
  });
  ckpt.set(prefix + "pooled_good", encode_samples(r.pooled_good_payoffs));
  ckpt.set(prefix + "pooled_member", encode_samples(r.pooled_member_payoffs));
  ckpt.set(prefix + "nef.count", encode_u64(r.new_edge_fraction_by_conn.size()));
  for (std::size_t j = 0; j < r.new_edge_fraction_by_conn.size(); ++j) {
    ckpt.set(prefix + "nef." + std::to_string(j),
             encode_accumulator(r.new_edge_fraction_by_conn[j]));
  }
}

/// Decode into `r`, whose new_edge_fraction_by_conn is already sized to the
/// config's connections_per_pair; a stored curve of any other length is torn.
bool decode_replicated(const Checkpoint& ckpt, const std::string& prefix, ReplicatedResult& r) {
  const auto get = [&](const std::string& key) {
    const std::string* v = ckpt.find(prefix + key);
    return v != nullptr ? *v : std::string();
  };
  const auto reps = decode_u64(get("replicates"));
  if (!reps) return false;
  r.replicates = static_cast<std::size_t>(*reps);
  bool ok = true;
  for_each_result_field([&](const char* key, auto member, auto, auto) {
    ok = ok && decode_field(get(key), r.*member);
  });
  if (!ok || !decode_samples(get("pooled_good"), r.pooled_good_payoffs) ||
      !decode_samples(get("pooled_member"), r.pooled_member_payoffs) ||
      decode_u64(get("nef.count")) != r.new_edge_fraction_by_conn.size()) {
    return false;
  }
  for (std::size_t j = 0; j < r.new_edge_fraction_by_conn.size(); ++j) {
    const auto acc = decode_accumulator(get("nef." + std::to_string(j)));
    if (!acc) return false;
    r.new_edge_fraction_by_conn[j] = *acc;
  }
  return true;
}

}  // namespace

ReplicatedResult run_replicated(const ScenarioConfig& base, std::size_t replicates,
                                parallel::ThreadPool* pool) {
  return run_replicated_adaptive(base, replicates, AdaptiveConfig{}, {}, pool).result;
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
  std::uint64_t fp = config_fingerprint(base);
  for (const TrackedScenarioMetric& t : tracked) fp = fnv1a_bytes(fp, t.name);
  fp = fnv1a_mix(fp, static_cast<std::uint64_t>(planned));

  AdaptiveReplicatedResult out;
  ReplicatedResult& agg = out.result;
  agg.new_edge_fraction_by_conn.resize(base.connections_per_pair);
  const auto run_one = [&base](std::size_t r) {
    ScenarioConfig cfg = base;
    cfg.seed = base.seed + r;
    return ScenarioRunner(cfg).run();
  };

  BatchCell cell;
  cell.fold = [&](std::size_t begin, std::size_t end) {
    fold_in_order(pool, begin, end, run_one,
                  [&](const ScenarioResult& r) { accumulate_result(agg, r); });
    agg.replicates = end;
  };
  cell.encode = [&](Checkpoint& ckpt, const std::string& prefix) {
    encode_replicated(ckpt, prefix, agg);
  };
  cell.decode = [&](const Checkpoint& ckpt, const std::string& prefix) {
    ReplicatedResult candidate;
    candidate.new_edge_fraction_by_conn.resize(base.connections_per_pair);
    if (!decode_replicated(ckpt, prefix, candidate)) return false;
    agg = std::move(candidate);
    return true;
  };
  cell.targets = [&](std::size_t, std::vector<StopTarget>& targets, std::vector<PassTarget>&) {
    targets.clear();
    for (const TrackedScenarioMetric& t : tracked) {
      targets.push_back(
          {&(agg.*t.accumulator), t.eps > 0.0 ? t.eps : adaptive.eps, t.relative});
    }
  };
  out.outcome = run_batches(adaptive, "r", cell_key, fp, planned, cell);

  // Without peeking the plain interval is valid; any peeking schedule
  // (adaptive batches or checkpointed ones) reports the anytime interval.
  const bool peeked = adaptive.adaptive || !adaptive.checkpoint.empty();
  for (const TrackedScenarioMetric& t : tracked) {
    out.intervals.push_back(
        peeked ? metrics::anytime_interval(agg.*t.accumulator, adaptive.alpha,
                                           std::max<std::size_t>(out.outcome.batches, 1),
                                           std::max<std::size_t>(tracked.size(), 1))
               : metrics::confidence_interval(agg.*t.accumulator));
  }
  return out;
}

}  // namespace p2panon::harness
