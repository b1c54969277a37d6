// The replication loop: one batch driver for every replicated sweep cell,
// with sequential stopping and checkpoint/resume.
//
// run_batches is the only loop that runs replicates. It sizes batches,
// folds each batch in replicate-index order, peeks after every batch, and
// saves/resumes cell state; the cell supplies only its state (fold, encode,
// decode, stop targets). Two entry points drive it:
//
//  * AdaptiveRunner::run_cell — cells of per-replicate double columns
//    (chaos and attack sweeps, scale_full_scenario);
//  * run_replicated / run_replicated_adaptive (harness/replicate.hpp) —
//    cells holding a full ReplicatedResult.
//
// What the driver adds on top of a fixed replicate count:
//
//  * Sequential stopping — batches are planned with Hoeffding + a union
//    bound over the tracked metrics, anytime (alpha-spending) confidence
//    bounds keep peeking after every batch statistically valid, boolean
//    invariants stop on a Hoeffding pass-rate lower bound, and a cell stops
//    the moment every target interval is within ±eps — under a hard
//    replicate cap (the planned fixed count, so adaptivity only ever saves
//    work). Default-off: with `adaptive = false` and no checkpoint a cell
//    runs all its replicates as one batch, which is the fixed-count run.
//
//  * Checkpoint/resume — after each batch the full cell state plus the
//    driver's own (config fingerprint, cap, progress, completed-replicate
//    bitmap) is serialised bit-exactly through harness::Checkpoint
//    (write-temp + atomic rename). Because replicate i is a pure
//    deterministic function of i (seed = base + i), a run killed at any
//    instant and resumed from its checkpoint produces numerically identical
//    final aggregates to an uninterrupted run — asserted by the
//    kill-and-resume gates (tests/harness/adaptive_smoke.py). A stored cell
//    that is stale (fingerprint or cap changed) or torn (any record missing
//    or malformed) restarts from scratch.
//
// The math is documented in DESIGN.md §3.12.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "metrics/stats.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"

namespace p2panon::harness {

class Checkpoint;

/// Knobs of the sequential-stopping layer. Default-constructed: adaptivity
/// off, no checkpointing — the proven-inert configuration.
struct AdaptiveConfig {
  bool adaptive = false;     ///< sequential stopping on/off
  double eps = 0.05;         ///< default ±eps target (MetricSpec::eps overrides)
  double alpha = 0.05;       ///< anytime error budget across all peeks & metrics
  std::size_t min_batch = 8; ///< first batch size / smallest planning quantum
  std::string checkpoint;    ///< checkpoint file path; empty = no checkpointing
  /// Crash-testing hook: once the N-th checkpoint save of this process is on
  /// disk (one counter across all cells, so a crash can land in the middle
  /// of a multi-cell sweep), terminate the process abruptly (std::_Exit, no
  /// unwinding — a faithful SIGKILL stand-in). 0 = off. Driven by the
  /// kill-and-resume gates; also settable via --kill-after-batch /
  /// P2PANON_KILL_AFTER_BATCH.
  std::size_t kill_after_batches = 0;
};

/// Consume --adaptive, --eps X, --checkpoint PATH and --kill-after-batch N
/// from argv (compacting it in place, so existing positional parsing is
/// untouched), with P2PANON_ADAPTIVE / P2PANON_EPS / P2PANON_CHECKPOINT /
/// P2PANON_KILL_AFTER_BATCH as environment fallbacks.
[[nodiscard]] AdaptiveConfig parse_adaptive_flags(int& argc, char** argv,
                                                  double default_eps = 0.05);

/// One tracked column of a sweep cell.
struct MetricSpec {
  enum class Kind : std::uint8_t {
    kMean,      ///< stopping target: anytime CI half-width <= eps
    kPassRate,  ///< boolean invariant: stop once the Hoeffding LCB >= threshold
    kSum,       ///< exact counter column; aggregated but never gates stopping
  };
  std::string name;
  Kind kind = Kind::kMean;
  double eps = 0.0;         ///< kMean: ±eps target; <= 0 uses AdaptiveConfig::eps
  bool relative = false;    ///< kMean: eps is a fraction of |mean| (throughput-style)
  double threshold = 0.995; ///< kPassRate: required lower confidence bound
};

/// What the stopping layer decided for one cell.
struct AdaptiveOutcome {
  std::size_t replicates_used = 0;
  std::size_t replicates_planned = 0;
  std::size_t batches = 0;     ///< peeks taken (a resumed run keeps counting)
  bool stopped_early = false;  ///< every target closed before the cap
  bool resumed = false;        ///< state restored from a checkpoint
  bool complete = false;
};

struct AdaptiveCellResult {
  /// Per-spec across-replicate accumulators (kSum specs accumulate too, for
  /// min/max/count; their exact totals live in `sums`).
  std::vector<metrics::Accumulator> metrics;
  /// Exact totals for kSum specs (integer-valued sums stay exact below 2^53);
  /// zero for other kinds.
  std::vector<double> sums;
  AdaptiveOutcome outcome;
};

// --- Sequential-stopping arithmetic (pure, deterministic) -------------------

/// View over one mean-CI stopping target.
struct StopTarget {
  const metrics::Accumulator* acc = nullptr;
  double eps = 0.0;
  bool relative = false;
  /// Resolved absolute half-width target at the current state.
  [[nodiscard]] double eps_abs() const noexcept;
};

/// View over one pass-rate stopping target.
struct PassTarget {
  std::size_t passes = 0;
  std::size_t trials = 0;
  double threshold = 0.995;
};

/// True when, at the k-th peek with `targets.size() + passes.size()`
/// simultaneous targets, every anytime interval is within its ±eps and
/// every pass-rate lower bound clears its threshold.
[[nodiscard]] bool anytime_stop(const std::vector<StopTarget>& targets,
                                const std::vector<PassTarget>& passes, double alpha,
                                std::size_t peek);

/// Hoeffding + union-bound batch plan: how many more replicates to run
/// before the `peek`-th look, given `done` so far and the hard cap
/// `planned`. Grows at most geometrically (so the alpha-spending schedule
/// gets its peeks) and never exceeds the remaining budget.
[[nodiscard]] std::size_t plan_next_batch(const std::vector<StopTarget>& targets,
                                          const std::vector<PassTarget>& passes,
                                          double alpha, std::size_t peek, std::size_t done,
                                          std::size_t planned, std::size_t min_batch);

// --- The batch driver -------------------------------------------------------

/// One sweep cell's state, as the batch driver sees it.
struct BatchCell {
  /// Run replicates [begin, end) and fold them into the state in index order.
  std::function<void(std::size_t begin, std::size_t end)> fold;
  /// Write the state into `ckpt` under keys starting with `prefix`.
  std::function<void(Checkpoint& ckpt, const std::string& prefix)> encode;
  /// Restore the state from `ckpt`. False = torn record; the state must then
  /// be left untouched (the cell restarts from scratch).
  std::function<bool(const Checkpoint& ckpt, const std::string& prefix)> decode;
  /// The current stopping targets, pointing into the state, after `done`
  /// replicates.
  std::function<void(std::size_t done, std::vector<StopTarget>& targets,
                     std::vector<PassTarget>& passes)>
      targets;
};

/// Run one cell of `planned` replicates under `cfg`: the one replication
/// loop. Fixed count without a checkpoint folds all replicates as a single
/// batch; a checkpoint alone uses doubling batches (bounding the work a
/// crash can lose); adaptivity plans batches and stops early. The cell's
/// checkpoint records live under "<ns>.<cell_key>." and resume only if
/// `fingerprint` and `planned` match what was stored.
[[nodiscard]] AdaptiveOutcome run_batches(const AdaptiveConfig& cfg, std::string_view ns,
                                          std::string_view cell_key, std::uint64_t fingerprint,
                                          std::size_t planned, const BatchCell& cell);

/// Compute replicate(i) for i in [begin, end) — across `pool` when given,
/// else serially — then fold(result) for each in index order, so results
/// never depend on the pool size.
template <class Replicate, class Fold>
void fold_in_order(parallel::ThreadPool* pool, std::size_t begin, std::size_t end,
                   const Replicate& replicate, const Fold& fold) {
  std::vector<std::invoke_result_t<const Replicate&, std::size_t>> rows(end - begin);
  if (pool != nullptr) {
    parallel::parallel_for(*pool, 0, rows.size(),
                           [&](std::size_t b) { rows[b] = replicate(begin + b); });
  } else {
    for (std::size_t b = 0; b < rows.size(); ++b) rows[b] = replicate(begin + b);
  }
  for (const auto& row : rows) fold(row);
}

/// Sequential-stopping runner for sweeps whose replicate `i` is a pure
/// deterministic function of `i` (seeded `base + i` by convention).
class AdaptiveRunner {
 public:
  AdaptiveRunner(AdaptiveConfig cfg, std::vector<MetricSpec> specs);

  /// Run one sweep cell. `replicate(i)` returns one sample per spec (booleans
  /// as 0/1 for kPassRate). `planned` is both the fixed count when adaptivity
  /// is off and the hard cap when it is on. `fingerprint` guards checkpoint
  /// resume: a stored cell with a different fingerprint (the sweep's config
  /// changed) is discarded, not resumed. With a `pool`, batches run their
  /// replicates in parallel; aggregation order is replicate-index ascending
  /// either way, so results are identical across pool sizes.
  [[nodiscard]] AdaptiveCellResult run_cell(
      const std::string& cell_key, std::uint64_t fingerprint, std::size_t planned,
      const std::function<std::vector<double>(std::size_t)>& replicate,
      parallel::ThreadPool* pool = nullptr) const;

  [[nodiscard]] const AdaptiveConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const std::vector<MetricSpec>& specs() const noexcept { return specs_; }

 private:
  AdaptiveConfig cfg_;
  std::vector<MetricSpec> specs_;
};

}  // namespace p2panon::harness
