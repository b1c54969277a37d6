#include "harness/replicate.hpp"

#include <algorithm>
#include <functional>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

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
  for_each_config_field(cfg, [&h](std::string_view, const auto& leaf, Runners) {
    using T = std::remove_cvref_t<decltype(leaf)>;
    if constexpr (std::is_same_v<T, double>) {
      h = fnv1a_double(h, leaf);
    } else {  // integers, flags and enumerators mix as their integer value
      h = fnv1a_mix(h, static_cast<std::uint64_t>(leaf));
    }
  });
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
