// Shared setup for the experiment-reproduction benches.
//
// Every bench binary reproduces one table or figure of the paper (or an
// ablation DESIGN.md calls out), using the paper's §3 parameters: N = 40,
// d = 5, 100 (I, R) pairs, 20 connections per pair, P_f ~ U[50, 100],
// w_s = w_a = 0.5, Pareto session times with median 60 min.
//
// Environment knobs:
//   P2PANON_REPLICATES  number of Monte-Carlo replicates (default 8)
//   P2PANON_SEED        base seed (default 1)
//   P2PANON_THREADS     thread-pool size (default: hardware concurrency)
//   P2PANON_CSV_DIR     if set, every printed table is also written there
//                       as <name>.csv for external plotting; BENCH_*.json
//                       artifacts and checkpoints resolve there too
//   P2PANON_ADAPTIVE    "1" = sequential stopping on (same as --adaptive)
//   P2PANON_EPS         ±eps stopping target (same as --eps)
//   P2PANON_CHECKPOINT  checkpoint path (same as --checkpoint)
#pragma once

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "harness/adaptive.hpp"
#include "harness/checkpoint.hpp"
#include "harness/replicate.hpp"
#include "harness/scenario.hpp"
#include "harness/table.hpp"
#include "parallel/thread_pool.hpp"

namespace p2panon::bench {

inline std::size_t env_size(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  const long parsed = std::strtol(v, nullptr, 10);
  return parsed > 0 ? static_cast<std::size_t>(parsed) : fallback;
}

/// Wall-clock milliseconds elapsed since `start`.
inline double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

inline std::size_t replicate_count() { return env_size("P2PANON_REPLICATES", 8); }
inline std::uint64_t base_seed() { return env_size("P2PANON_SEED", 1); }

inline parallel::ThreadPool& shared_pool() {
  static parallel::ThreadPool pool(env_size("P2PANON_THREADS", 0));
  return pool;
}

/// Paper-§3 configuration with the given malicious fraction, strategy, tau.
inline harness::ScenarioConfig paper_config(double f, core::StrategyKind strategy,
                                            double tau = 2.0) {
  harness::ScenarioConfig cfg = harness::paper_default_config(base_seed());
  cfg.overlay.malicious_fraction = f;
  cfg.good_strategy = strategy;
  cfg.tau = tau;
  return cfg;
}

inline harness::ReplicatedResult run(const harness::ScenarioConfig& cfg) {
  return harness::run_replicated(cfg, replicate_count(), &shared_pool());
}

/// Print the table to stdout and, when P2PANON_CSV_DIR is set, also write
/// it to <dir>/<name>.csv (atomically — a crash mid-emit never leaves a
/// truncated CSV behind).
inline void emit(const harness::TextTable& table, const std::string& name) {
  table.print(std::cout);
  if (const char* dir = std::getenv("P2PANON_CSV_DIR")) {
    std::ostringstream csv;
    table.print_csv(csv);
    (void)harness::atomic_write_file(std::filesystem::path(dir) / (name + ".csv"), csv.str());
  }
}

/// Directory results artifacts (BENCH_*.json, checkpoints) land in:
/// P2PANON_CSV_DIR when set, else the current directory.
inline std::filesystem::path artifact_dir() {
  if (const char* dir = std::getenv("P2PANON_CSV_DIR")) return dir;
  return ".";
}

/// Resolve a checkpoint path: absolute stays as-is, relative lands in
/// artifact_dir() next to the sweep's other artifacts.
inline std::filesystem::path resolve_checkpoint(const std::string& path) {
  const std::filesystem::path p(path);
  return p.is_absolute() ? p : artifact_dir() / p;
}

/// The single sanctioned way to write a BENCH_*.json artifact: atomic
/// write-temp-then-rename via harness::atomic_write_file, into
/// artifact_dir(). Returns the final path (empty on failure).
inline std::filesystem::path write_bench_json(const std::string& name,
                                              const std::string& payload) {
  const std::filesystem::path path = artifact_dir() / name;
  if (!harness::atomic_write_file(path, payload)) {
    std::cerr << "warning: failed to write " << path << "\n";
    return {};
  }
  std::cout << "wrote " << path.string() << "\n";
  return path;
}

/// Parse the shared adaptive-replication flags (--adaptive, --eps,
/// --checkpoint, --kill-after-batch + env fallbacks) and resolve a relative
/// checkpoint path against artifact_dir().
inline harness::AdaptiveConfig parse_sweep_options(int& argc, char** argv,
                                                   double default_eps = 0.05) {
  harness::AdaptiveConfig cfg = harness::parse_adaptive_flags(argc, argv, default_eps);
  if (!cfg.checkpoint.empty()) cfg.checkpoint = resolve_checkpoint(cfg.checkpoint).string();
  return cfg;
}

/// JSON fragment reporting what the stopping layer did for one sweep (or
/// one cell): replicates-used vs replicates-planned plus the stop/resume
/// flags. Embed inside an enclosing object.
inline std::string adaptive_json_fields(const harness::AdaptiveOutcome& o) {
  std::ostringstream out;
  out << "\"replicates_planned\": " << o.replicates_planned
      << ", \"replicates_used\": " << o.replicates_used << ", \"batches\": " << o.batches
      << ", \"stopped_early\": " << (o.stopped_early ? "true" : "false")
      << ", \"resumed\": " << (o.resumed ? "true" : "false");
  return out.str();
}

}  // namespace p2panon::bench
