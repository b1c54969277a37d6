#include "harness/adaptive.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <optional>

#include "harness/checkpoint.hpp"

namespace p2panon::harness {

namespace {

bool env_truthy(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr) return false;
  const std::string_view s(v);
  return s == "1" || s == "true" || s == "on" || s == "yes";
}

/// Checkpoint keys must be single whitespace-free tokens.
std::string sanitize_key(std::string_view key) {
  std::string out;
  out.reserve(key.size());
  for (const char c : key) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    out.push_back(ok ? c : '_');
  }
  return out.empty() ? std::string("cell") : out;
}

/// Completed-replicate bitmap as space-free hex words (64 bits per word,
/// LSB = replicate 0). Replicates complete strictly in index order, so the
/// bitmap doubles as a consistency check on the stored `done` count.
std::string bitmap_for(std::size_t done) {
  std::string out;
  for (std::size_t word = 0; word * 64 < done || (word == 0 && done == 0); ++word) {
    const std::size_t lo = word * 64;
    std::uint64_t bits = 0;
    for (std::size_t b = 0; b < 64 && lo + b < done; ++b) bits |= 1ULL << b;
    if (word) out.push_back(':');
    out += encode_u64(bits);
    if (done == 0) break;
  }
  return out;
}

}  // namespace

AdaptiveConfig parse_adaptive_flags(int& argc, char** argv, double default_eps) {
  AdaptiveConfig cfg;
  cfg.eps = default_eps;
  if (env_truthy("P2PANON_ADAPTIVE")) cfg.adaptive = true;
  if (const char* v = std::getenv("P2PANON_EPS")) {
    const double e = std::strtod(v, nullptr);
    if (e > 0.0) cfg.eps = e;
  }
  if (const char* v = std::getenv("P2PANON_CHECKPOINT")) cfg.checkpoint = v;
  if (const char* v = std::getenv("P2PANON_KILL_AFTER_BATCH")) {
    cfg.kill_after_batches = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
  }

  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--adaptive") {
      cfg.adaptive = true;
    } else if (arg == "--eps" && i + 1 < argc) {
      const double e = std::strtod(argv[++i], nullptr);
      if (e > 0.0) cfg.eps = e;
    } else if (arg == "--checkpoint" && i + 1 < argc) {
      cfg.checkpoint = argv[++i];
    } else if (arg == "--kill-after-batch" && i + 1 < argc) {
      cfg.kill_after_batches = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  return cfg;
}

double StopTarget::eps_abs() const noexcept {
  if (!relative) return eps;
  // Relative target on a near-zero mean degenerates to "run to the cap",
  // which is the conservative choice.
  return eps * std::abs(acc != nullptr ? acc->mean() : 0.0);
}

bool anytime_stop(const std::vector<StopTarget>& targets, const std::vector<PassTarget>& passes,
                  double alpha, std::size_t peek) {
  const std::size_t m = targets.size() + passes.size();
  if (m == 0) return false;
  for (const StopTarget& t : targets) {
    // With < 2 samples the t interval is degenerate (half-width 0); never
    // let that count as "converged".
    if (t.acc == nullptr || t.acc->count() < 2) return false;
    const auto ci = metrics::anytime_interval(*t.acc, alpha, peek, m);
    const double target = t.eps_abs();
    if (target <= 0.0 || ci.half_width > target) return false;
  }
  for (const PassTarget& p : passes) {
    if (p.trials == 0) return false;
    // A single observed failure can never be argued away by more samples
    // at thresholds this close to 1; only an all-pass record stops early.
    const double delta =
        std::clamp(metrics::alpha_spend(alpha, peek) / static_cast<double>(m), 1.0e-12, 0.5);
    if (metrics::pass_rate_lower_bound(p.passes, p.trials, delta) < p.threshold) return false;
  }
  return true;
}

std::size_t plan_next_batch(const std::vector<StopTarget>& targets,
                            const std::vector<PassTarget>& passes, double alpha, std::size_t peek,
                            std::size_t done, std::size_t planned, std::size_t min_batch) {
  if (done >= planned) return 0;
  min_batch = std::max<std::size_t>(min_batch, 1);
  const std::size_t remaining = planned - done;
  const std::size_t m = std::max<std::size_t>(targets.size() + passes.size(), 1);
  const double delta =
      std::clamp(metrics::alpha_spend(alpha, peek) / static_cast<double>(m), 1.0e-12, 0.5);

  // Hoeffding estimate of the total n each target still needs, using the
  // observed range as the (data-driven) range proxy.
  std::size_t want_total = 0;
  for (const StopTarget& t : targets) {
    if (t.acc == nullptr) continue;
    const double target = t.eps_abs();
    if (target <= 0.0) {
      want_total = planned;  // degenerate target: plan for the cap
      continue;
    }
    double range = t.acc->count() >= 2 ? t.acc->max() - t.acc->min() : 0.0;
    if (!(range > 0.0)) range = 1.0;
    want_total = std::max(want_total, metrics::hoeffding_plan(range, target, delta));
  }
  for (const PassTarget& p : passes) {
    // n with an all-pass record needed before the Hoeffding LCB clears the
    // threshold: n >= ln(1/delta) / (2 (1 - threshold)^2).
    const double gap = 1.0 - std::min(p.threshold, 1.0 - 1e-9);
    const double n = std::log(1.0 / delta) / (2.0 * gap * gap);
    want_total = std::max(
        want_total, static_cast<std::size_t>(std::ceil(std::min(n, 1.0e18))));
  }
  const std::size_t want = want_total > done ? want_total - done : min_batch;

  // Geometric growth cap keeps the alpha-spending schedule peeking often
  // enough to actually stop early.
  const std::size_t grow = std::max(min_batch, done);
  return std::min(remaining, std::min(grow, std::max(want, min_batch)));
}

AdaptiveOutcome run_batches(const AdaptiveConfig& cfg, std::string_view ns,
                            std::string_view cell_key, std::uint64_t fingerprint,
                            std::size_t planned, const BatchCell& cell) {
  AdaptiveOutcome out;
  out.replicates_planned = planned;
  std::size_t done = 0;
  std::size_t peeks = 0;
  bool stopped = false;
  bool complete = false;

  const bool use_ckpt = !cfg.checkpoint.empty();
  const std::filesystem::path ckpt_path = cfg.checkpoint;
  const std::string prefix = std::string(ns) + "." + sanitize_key(cell_key) + ".";
  Checkpoint ckpt;

  if (use_ckpt) {
    if (auto loaded = Checkpoint::load(ckpt_path)) ckpt = std::move(*loaded);
    const auto find_u64 = [&](const char* key) -> std::optional<std::uint64_t> {
      const std::string* v = ckpt.find(prefix + key);
      return v != nullptr ? decode_u64(*v) : std::nullopt;
    };
    const auto stored_done = find_u64("done");
    const auto stored_peeks = find_u64("peeks");
    const std::string* st = ckpt.find(prefix + "stopped");
    const std::string* co = ckpt.find(prefix + "complete");
    const std::string* bm = ckpt.find(prefix + "bitmap");
    // Stale (config or cap changed) or torn cell state restarts the cell;
    // it is never merged. Every batch runs at least one replicate, so
    // peeks <= done.
    if (find_u64("fp") == fingerprint && find_u64("planned") == planned && stored_done &&
        stored_peeks && *stored_done <= planned && *stored_peeks <= *stored_done &&
        st != nullptr && co != nullptr && bm != nullptr && *bm == bitmap_for(*stored_done) &&
        cell.decode(ckpt, prefix)) {
      done = static_cast<std::size_t>(*stored_done);
      peeks = static_cast<std::size_t>(*stored_peeks);
      stopped = (*st == "1");
      complete = (*co == "1");
      out.resumed = done > 0 || complete;
    } else {
      ckpt.erase_prefix(prefix);
    }
  }

  std::vector<StopTarget> targets;
  std::vector<PassTarget> passes;
  while (!complete && !stopped && done < planned) {
    std::size_t batch = planned - done;  // fixed count, nothing persisted: one batch
    if (cfg.adaptive) {
      cell.targets(done, targets, passes);
      batch = plan_next_batch(targets, passes, cfg.alpha, peeks + 1, done, planned,
                              cfg.min_batch);
    } else if (use_ckpt) {
      // Checkpointing without adaptivity: doubling batches bound the work a
      // crash can lose while leaving aggregates identical (fold order is
      // still replicate-index ascending).
      batch = std::min(planned - done, std::max(cfg.min_batch, done));
    }
    batch = std::max<std::size_t>(batch, 1);

    cell.fold(done, done + batch);
    done += batch;
    ++peeks;

    if (cfg.adaptive && done < planned) {
      cell.targets(done, targets, passes);
      stopped = anytime_stop(targets, passes, cfg.alpha, peeks);
    }

    if (use_ckpt) {
      ckpt.set(prefix + "fp", encode_u64(fingerprint));
      ckpt.set(prefix + "planned", encode_u64(planned));
      ckpt.set(prefix + "done", encode_u64(done));
      ckpt.set(prefix + "peeks", encode_u64(peeks));
      ckpt.set(prefix + "stopped", stopped ? "1" : "0");
      ckpt.set(prefix + "complete", stopped || done >= planned ? "1" : "0");
      ckpt.set(prefix + "bitmap", bitmap_for(done));
      cell.encode(ckpt, prefix);
      (void)ckpt.save(ckpt_path);
      // The kill hook counts saves process-wide, across cells and runners.
      static std::atomic<std::size_t> saves{0};
      const std::size_t saved = ++saves;
      if (cfg.kill_after_batches != 0 && saved >= cfg.kill_after_batches) {
        // Crash injection for the kill-and-resume gates: die with no
        // unwinding, no flushing, right after the checkpoint rename — the
        // closest portable stand-in for SIGKILL at the worst moment.
        std::_Exit(9);
      }
    }
  }

  out.replicates_used = done;
  out.batches = peeks;
  out.stopped_early = stopped && done < planned;
  out.complete = true;
  return out;
}

AdaptiveRunner::AdaptiveRunner(AdaptiveConfig cfg, std::vector<MetricSpec> specs)
    : cfg_(std::move(cfg)), specs_(std::move(specs)) {}

AdaptiveCellResult AdaptiveRunner::run_cell(
    const std::string& cell_key, std::uint64_t fingerprint, std::size_t planned,
    const std::function<std::vector<double>(std::size_t)>& replicate,
    parallel::ThreadPool* pool) const {
  const std::size_t nspec = specs_.size();

  // Fold the metric set and the cap into the fingerprint: changing either
  // invalidates stored cell state just like a config change would.
  std::uint64_t fp = fingerprint;
  for (const MetricSpec& s : specs_) {
    fp = fnv1a_bytes(fp, s.name);
    fp = fnv1a_mix(fp, static_cast<std::uint64_t>(s.kind));
  }
  fp = fnv1a_mix(fp, static_cast<std::uint64_t>(planned));

  AdaptiveCellResult out;
  out.metrics.resize(nspec);
  out.sums.assign(nspec, 0.0);
  std::vector<std::uint64_t> pass_counts(nspec, 0);
  std::uint64_t sample_digest = fnv1a_init();

  BatchCell cell;
  cell.fold = [&](std::size_t begin, std::size_t end) {
    fold_in_order(pool, begin, end, replicate, [&](const std::vector<double>& row) {
      for (std::size_t i = 0; i < nspec && i < row.size(); ++i) {
        out.metrics[i].add(row[i]);
        if (specs_[i].kind == MetricSpec::Kind::kSum) out.sums[i] += row[i];
        if (specs_[i].kind == MetricSpec::Kind::kPassRate && row[i] > 0.5) ++pass_counts[i];
        sample_digest = fnv1a_double(sample_digest, row[i]);
      }
    });
  };
  cell.encode = [&](Checkpoint& ckpt, const std::string& prefix) {
    ckpt.set(prefix + "samples", encode_u64(sample_digest));
    for (std::size_t i = 0; i < nspec; ++i) {
      ckpt.set(prefix + "m" + std::to_string(i), encode_accumulator(out.metrics[i]));
      ckpt.set(prefix + "s" + std::to_string(i), encode_double(out.sums[i]));
      ckpt.set(prefix + "p" + std::to_string(i), encode_u64(pass_counts[i]));
    }
  };
  cell.decode = [&](const Checkpoint& ckpt, const std::string& prefix) {
    const auto field = [&](const std::string& key) {
      const std::string* v = ckpt.find(prefix + key);
      return v != nullptr ? *v : std::string();
    };
    const auto digest = decode_u64(field("samples"));
    if (!digest) return false;
    std::vector<metrics::Accumulator> accs(nspec);
    std::vector<double> sums(nspec, 0.0);
    std::vector<std::uint64_t> pcs(nspec, 0);
    for (std::size_t i = 0; i < nspec; ++i) {
      const auto acc = decode_accumulator(field("m" + std::to_string(i)));
      const auto sum = decode_double(field("s" + std::to_string(i)));
      const auto pc = decode_u64(field("p" + std::to_string(i)));
      if (!acc || !sum || !pc) return false;
      accs[i] = *acc;
      sums[i] = *sum;
      pcs[i] = *pc;
    }
    out.metrics = std::move(accs);
    out.sums = std::move(sums);
    pass_counts = std::move(pcs);
    sample_digest = *digest;
    return true;
  };
  cell.targets = [&](std::size_t done, std::vector<StopTarget>& targets,
                     std::vector<PassTarget>& passes) {
    targets.clear();
    passes.clear();
    for (std::size_t i = 0; i < nspec; ++i) {
      const MetricSpec& s = specs_[i];
      const double eps = s.eps > 0.0 ? s.eps : cfg_.eps;
      if (s.kind == MetricSpec::Kind::kMean) {
        targets.push_back({&out.metrics[i], eps, s.relative});
      } else if (s.kind == MetricSpec::Kind::kPassRate) {
        passes.push_back({pass_counts[i], done, s.threshold});
      }
    }
  };

  out.outcome = run_batches(cfg_, "c", cell_key, fp, planned, cell);
  return out;
}

}  // namespace p2panon::harness
