// The benchmark's three workloads, their correctness checks, result
// fingerprints and per-layer counts.
//
// Every workload is driven through the program's public entry points only:
//   paper_sweep       harness::run_replicated over the Fig. 3/4 grid
//   fault_population  harness::ScenarioRunner::run, one fault-mode replicate
//   sharded_scale     harness::run_sharded_scenario at N = 10^5, K = 4
// Inputs derive from the benchmark seed alone, so a seed repeats exactly.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "trace.hpp"

namespace perfbench {

/// Metric values by name, in emission order. Units live in the catalogue
/// of perfbench/run.py, which also checks every named metric is present.
using Metrics = std::vector<std::pair<std::string, double>>;

/// Correctness checks of one benchmark run; any failure fails the run.
struct Checks {
  std::uint64_t attempted = 0;
  std::vector<std::string> failures;

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) failures.push_back(what);
  }
};

/// FNV-1a 64 over 8-byte words: the benchmark's result fingerprint.
struct Fingerprint {
  std::uint64_t h = 1469598103934665603ULL;
  void add(std::uint64_t x) noexcept;
  void add_double(double d) noexcept;
};

/// Input sizes: the measured shape, or a reduced one for the self-tests.
enum class Scale { kFull, kSmall };

class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual const char* name() const noexcept = 0;
  /// Replicates one pass runs (the unit of replicates_per_s).
  [[nodiscard]] virtual std::size_t replicates() const noexcept = 0;
  /// Whether the workload runs on a thread pool (and so has a pool-size
  /// invariance check).
  [[nodiscard]] virtual bool uses_pool() const noexcept = 0;

  /// The zero-horizon call of the same public entry point: everything the
  /// pass builds, nothing it simulates.
  virtual void setup_pass(p2panon::parallel::ThreadPool* pool) = 0;
  /// One full pass. Keeps the result for check()/counts() and returns its
  /// fingerprint.
  virtual std::uint64_t pass(p2panon::parallel::ThreadPool* pool) = 0;

  /// Invariants of the last pass's result.
  virtual void check(Checks& checks) const = 0;
  /// Require the same result fingerprint on a pool of one thread as on
  /// `pool`, the measured one. A no-op for a workload without a pool.
  virtual void check_pool_invariance(Checks& checks, p2panon::parallel::ThreadPool* pool) = 0;
  /// Per-layer counts from the last pass's result.
  virtual void counts(Metrics& out) const = 0;
  /// Traced per-layer timings, recorded as spans under `parent`. `wall_s`
  /// and `setup_s` are the untraced figures of the same process.
  virtual void trace_layers(Tracer& tracer, int parent, p2panon::parallel::ThreadPool& pool,
                            double wall_s, double setup_s, Metrics& out, Checks& checks) = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed, Scale scale);

}  // namespace perfbench
