// BENCH_full_scenario: how the *full paper scenario* scales with engine
// shards — the sharded paper runner (harness/paper_sharded) swept over a
// K x N grid in the paper-default shape and in fault mode (link loss plus
// the bank-fault settlement lifecycle), written to BENCH_full_scenario.json.
//
// Each cell reports wall-clock time, setup time (the same replicate at zero
// horizon — no warm-up, no connections — which only builds the world),
// events/sec over the run phase (engine events fired over wall minus
// setup), the settlement-plane outcome counters, and the adaptive-
// replication outcome (replicates used vs planned). Every replicate
// re-checks the model invariants — exact conservation in every bank
// partition and globally, full reconciliation, digest determinism — so the
// sweep doubles as a gate.
//
// Throughput gate: events/sec at K = 4 must be >= 2x the K = 1 cell at the
// largest paper-default point (N >= 10^4). The gate needs real cores to
// mean anything, so it self-disables (recorded in the JSON, exit 0) when
// the box has fewer than 8 hardware threads; wall-clock numbers are still
// recorded honestly either way.
//
// Knobs: --smoke runs one small K = 4 cell twice and asserts completion,
// digest determinism and reconciliation — no timing gates (the
// `scale-smoke-full` ctest entry); --adaptive enables sequential stopping
// per cell on the events/sec CI (±eps relative) with the invariant columns
// as pass-rate targets; --checkpoint makes the grid crash-recoverable cell
// by cell. Environment: P2PANON_FULL_MAX_N (default 10000) caps the sweep,
// plus the usual P2PANON_SEED / P2PANON_THREADS / P2PANON_CSV_DIR and the
// adaptive knobs P2PANON_ADAPTIVE / P2PANON_EPS / P2PANON_CHECKPOINT.
#include <chrono>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "harness/checkpoint.hpp"
#include "harness/paper_sharded.hpp"

namespace {

using namespace p2panon;

constexpr double kGateSpeedup = 2.0;
constexpr unsigned kGateMinThreads = 8;
constexpr std::size_t kGateMinN = 10000;

struct GridPoint {
  std::size_t n;
  std::size_t degree;
  std::size_t pairs;
};

// Paper shape is N = 40, d = 5, 100 pairs; the sweep scales pairs with N
// and holds connections-per-pair at 4 so the largest point stays seconds.
constexpr GridPoint kGrid[] = {
    {40, 5, 100},
    {400, 6, 200},
    {2000, 8, 1000},
    {10000, 10, 2500},
};
constexpr std::uint32_t kShardCounts[] = {1, 2, 4};

harness::ScenarioConfig cell_config(const GridPoint& p, std::uint32_t shards, bool fault_mode,
                                    std::uint64_t seed) {
  harness::ScenarioConfig cfg = harness::paper_default_config(seed);
  cfg.overlay.node_count = static_cast<std::uint32_t>(p.n);
  cfg.overlay.degree = static_cast<std::uint32_t>(p.degree);
  cfg.pair_count = p.pairs;
  cfg.connections_per_pair = 4;
  cfg.warmup = sim::minutes(30.0);
  cfg.pair_start_window = sim::minutes(45.0);
  cfg.engine_shards = shards;
  cfg.engine_window = 60.0;
  cfg.view_refresh = 300.0;
  if (fault_mode) {
    cfg.fault.link_loss = 0.05;
    cfg.fault.bank.lifecycle = true;
    cfg.fault.bank.claim_loss = 0.1;
    cfg.fault.bank.initiator_crash = 0.2;
    cfg.fault.bank.forwarder_crash = 0.05;
  }
  return cfg;
}

struct CellRow {
  std::size_t n = 0;
  std::uint32_t shards = 0;
  const char* mode = "";
  double events_per_sec = 0.0;  ///< across-replicate mean, run phase only
  double wall_ms = 0.0;         ///< across-replicate mean
  double setup_ms = 0.0;        ///< across-replicate mean of the zero-horizon call
  double events_fired = 0.0;    ///< exact sum over replicates
  double completed = 0.0;
  double closed = 0.0;
  double cross_shard = 0.0;
  bool conserved = false;
  bool reconciled = false;
  harness::AdaptiveOutcome outcome;
};

std::uint64_t cell_fingerprint(const GridPoint& p, std::uint32_t shards, bool fault_mode) {
  std::uint64_t h = harness::fnv1a_init();
  h = harness::fnv1a_bytes(h, "full_scenario_v2");
  h = harness::fnv1a_mix(h, p.n);
  h = harness::fnv1a_mix(h, p.degree);
  h = harness::fnv1a_mix(h, p.pairs);
  h = harness::fnv1a_mix(h, shards);
  h = harness::fnv1a_mix(h, fault_mode ? 1 : 0);
  h = harness::fnv1a_mix(h, bench::base_seed());
  return h;
}

CellRow run_cell(harness::AdaptiveRunner& runner, const GridPoint& p, std::uint32_t shards,
                 bool fault_mode, std::size_t planned) {
  // Replicates run sequentially (run_cell pool = nullptr): each replicate
  // drives the windowed sharded engine from the *shared* pool, and a
  // windowed ShardedSimulator must never run from inside a task on the pool
  // it borrows (wait_idle would deadlock).
  const std::string key = std::string(fault_mode ? "fault" : "paper") + "/n" +
                          std::to_string(p.n) + "/k" + std::to_string(shards);
  const auto replicate = [&](std::size_t i) {
    harness::ScenarioConfig cfg = cell_config(p, shards, fault_mode, bench::base_seed() + i);
    harness::ScenarioConfig setup_cfg = cfg;
    setup_cfg.connections_per_pair = 0;
    setup_cfg.warmup = 0.0;
    const auto s0 = std::chrono::steady_clock::now();
    (void)harness::run_paper_scenario_sharded(setup_cfg, &bench::shared_pool());
    const double setup_ms = bench::ms_since(s0);
    const auto t0 = std::chrono::steady_clock::now();
    const harness::ScenarioResult r =
        harness::run_paper_scenario_sharded(cfg, &bench::shared_pool());
    const double wall_ms = bench::ms_since(t0);
    const double eps = static_cast<double>(r.engine_events_fired) /
                       std::max(1.0e-6, (wall_ms - setup_ms) / 1000.0);
    return std::vector<double>{eps,
                               wall_ms,
                               r.payment_conserved ? 1.0 : 0.0,
                               r.settlement_reconciled ? 1.0 : 0.0,
                               static_cast<double>(r.engine_events_fired),
                               static_cast<double>(r.connections_completed),
                               static_cast<double>(r.settlements_closed),
                               static_cast<double>(r.engine_cross_shard_messages),
                               setup_ms};
  };
  const harness::AdaptiveCellResult cell =
      runner.run_cell(key, cell_fingerprint(p, shards, fault_mode), planned, replicate, nullptr);

  CellRow row;
  row.n = p.n;
  row.shards = shards;
  row.mode = fault_mode ? "fault" : "paper";
  row.events_per_sec = cell.metrics[0].mean();
  row.wall_ms = cell.metrics[1].mean();
  row.conserved = cell.metrics[2].count() > 0 && cell.metrics[2].mean() == 1.0;
  row.reconciled = cell.metrics[3].count() > 0 && cell.metrics[3].mean() == 1.0;
  row.events_fired = cell.sums[4];
  row.completed = cell.sums[5];
  row.closed = cell.sums[6];
  row.cross_shard = cell.sums[7];
  row.setup_ms = cell.metrics[8].mean();
  row.outcome = cell.outcome;
  std::cout << key << ": " << static_cast<std::uint64_t>(row.events_per_sec)
            << " events/sec, wall " << row.wall_ms << " ms (setup " << row.setup_ms
            << " ms), replicates "
            << row.outcome.replicates_used << "/" << row.outcome.replicates_planned
            << (row.conserved ? "" : "  CONSERVATION VIOLATED")
            << (row.reconciled ? "" : "  RECONCILIATION FAILED") << "\n";
  return row;
}

void emit_json(const std::vector<CellRow>& rows, bool gate_enabled, double gate_speedup,
               bool gate_pass, unsigned hw_threads) {
  std::ostringstream out;
  out << "{\n  \"bench\": \"full_scenario\",\n";
  out << "  \"threads\": " << bench::env_size("P2PANON_THREADS", hw_threads) << ",\n";
  out << "  \"hardware_threads\": " << hw_threads << ",\n";
  out << "  \"cells\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const CellRow& r = rows[i];
    out << "    {\"mode\": \"" << r.mode << "\", \"n\": " << r.n << ", \"shards\": " << r.shards
        << ", \"events_per_sec\": " << r.events_per_sec << ", \"wall_ms\": " << r.wall_ms
        << ", \"setup_ms\": " << r.setup_ms
        << ", \"events_fired\": " << static_cast<std::uint64_t>(r.events_fired)
        << ", \"connections_completed\": " << static_cast<std::uint64_t>(r.completed)
        << ", \"settlements_closed\": " << static_cast<std::uint64_t>(r.closed)
        << ", \"cross_shard_messages\": " << static_cast<std::uint64_t>(r.cross_shard)
        << ", \"conserved\": " << (r.conserved ? "true" : "false")
        << ", \"reconciled\": " << (r.reconciled ? "true" : "false") << ", "
        << bench::adaptive_json_fields(r.outcome) << "}" << (i + 1 < rows.size() ? "," : "")
        << "\n";
  }
  out << "  ],\n";
  out << "  \"throughput_gate\": {\"required_speedup\": " << kGateSpeedup
      << ", \"min_hardware_threads\": " << kGateMinThreads
      << ", \"enabled\": " << (gate_enabled ? "true" : "false")
      << ", \"speedup_k4_vs_k1\": " << gate_speedup
      << ", \"pass\": " << (gate_pass ? "true" : "false") << "}\n";
  out << "}\n";
  bench::write_bench_json("BENCH_full_scenario.json", out.str());
}

/// --smoke: one small K = 4 cell run twice — completion, digest
/// determinism, conservation, reconciliation. No timing gates, so it cannot
/// flake under a loaded CI box; the ctest TIMEOUT is the only clock.
int run_smoke() {
  const GridPoint p{400, 6, 200};
  harness::ScenarioConfig cfg = cell_config(p, 4, /*fault_mode=*/false, bench::base_seed());
  const harness::ScenarioResult a =
      harness::run_paper_scenario_sharded(cfg, &bench::shared_pool());
  const harness::ScenarioResult b =
      harness::run_paper_scenario_sharded(cfg, &bench::shared_pool());
  bool ok = true;
  if (a.sharded_digest == 0 || a.sharded_digest != b.sharded_digest) {
    std::cerr << "smoke: digest mismatch (" << a.sharded_digest << " vs " << b.sharded_digest
              << ")\n";
    ok = false;
  }
  if (!a.payment_conserved || !a.settlement_reconciled) {
    std::cerr << "smoke: conservation/reconciliation failed\n";
    ok = false;
  }
  if (a.connections_completed == 0 || a.settlements_closed == 0) {
    std::cerr << "smoke: scenario produced no settled traffic\n";
    ok = false;
  }
  std::cout << "smoke: K=4 N=" << p.n << " digest " << a.sharded_digest << ", "
            << a.connections_completed << " connections, " << a.settlements_closed
            << " settlements closed, conserved="
            << (a.payment_conserved ? "true" : "false") << "\n";
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const harness::AdaptiveConfig adaptive = bench::parse_sweep_options(argc, argv, 0.05);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return run_smoke();
  }

  const std::size_t max_n = bench::env_size("P2PANON_FULL_MAX_N", 10000);
  const std::size_t planned = bench::env_size("P2PANON_REPLICATES", 2);
  const unsigned hw_threads = std::thread::hardware_concurrency();

  const std::vector<harness::MetricSpec> specs = {
      {"events_per_sec", harness::MetricSpec::Kind::kMean, 0.05, /*relative=*/true},
      {"wall_ms", harness::MetricSpec::Kind::kMean, 0.0, /*relative=*/true},
      {"conserved", harness::MetricSpec::Kind::kPassRate},
      {"reconciled", harness::MetricSpec::Kind::kPassRate},
      {"events_fired", harness::MetricSpec::Kind::kSum},
      {"connections_completed", harness::MetricSpec::Kind::kSum},
      {"settlements_closed", harness::MetricSpec::Kind::kSum},
      {"cross_shard_messages", harness::MetricSpec::Kind::kSum},
      {"setup_ms", harness::MetricSpec::Kind::kSum},  // reported as a mean; never gates stopping
  };
  harness::AdaptiveRunner runner(adaptive, specs);

  std::vector<CellRow> rows;
  bool invariants_ok = true;
  for (const bool fault_mode : {false, true}) {
    for (const GridPoint& p : kGrid) {
      if (p.n > max_n) continue;
      for (const std::uint32_t k : kShardCounts) {
        const CellRow row = run_cell(runner, p, k, fault_mode, planned);
        invariants_ok = invariants_ok && row.conserved && row.reconciled;
        rows.push_back(row);
      }
    }
  }

  // Throughput gate: K = 4 vs K = 1 at the largest paper-default point.
  double gate_speedup = 0.0;
  std::size_t gate_n = 0;
  for (const CellRow& r : rows) {
    if (std::strcmp(r.mode, "paper") != 0 || r.n < kGateMinN || r.n < gate_n) continue;
    const CellRow* k1 = nullptr;
    for (const CellRow& s : rows) {
      if (s.n == r.n && std::strcmp(s.mode, "paper") == 0 && s.shards == 1) k1 = &s;
    }
    if (r.shards == 4 && k1 != nullptr && k1->events_per_sec > 0.0) {
      gate_n = r.n;
      gate_speedup = r.events_per_sec / k1->events_per_sec;
    }
  }
  const bool gate_enabled = hw_threads >= kGateMinThreads && gate_n >= kGateMinN;
  const bool gate_pass = !gate_enabled || gate_speedup >= kGateSpeedup;
  if (!gate_enabled) {
    std::cout << "throughput gate disabled (" << hw_threads << " hardware threads, largest "
              << "paper-default N = " << gate_n << "); wall-clock recorded, not gated\n";
  } else {
    std::cout << "throughput gate: K=4 vs K=1 speedup " << gate_speedup << " (need >= "
              << kGateSpeedup << ") at N = " << gate_n << (gate_pass ? " PASS" : " FAIL")
              << "\n";
  }

  emit_json(rows, gate_enabled, gate_speedup, gate_pass, hw_threads);
  if (!invariants_ok) {
    std::cerr << "invariant violation in at least one cell\n";
    return 1;
  }
  return gate_pass ? 0 : 1;
}
