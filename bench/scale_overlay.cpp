// BENCH_sim_engine: how the discrete-event engine scales with overlay size.
//
// Two measurement families (in $P2PANON_CSV_DIR when set, else the cwd):
//
//  1. Scale sweep — full scenarios at N in {40, 200, 1000, 5000} with degree
//     and pair count scaled alongside, in both the synchronous paper shape
//     and fault mode (ack timers, keepalives, crashes — the cancel-heavy
//     workload). Each point reports wall-clock time plus the engine counters
//     surfaced through ScenarioResult: events scheduled / cancelled / fired
//     and the number of callbacks that outgrew EventCallback's inline buffer
//     (expected 0 — the allocation-free claim, checked here at scale).
//     Written to BENCH_sim_engine.json.
//
//  2. Sharded scale sweep — the windowed sharded workload
//     (harness/sharded_scenario) at N up to 10^5 by default (10^6 via the
//     env knob), swept over shard count K x window size W, written to
//     BENCH_scale_overlay.json: per-point setup time (the same call at
//     zero horizon, which only builds the world), events/sec over the run
//     phase (wall minus setup), peak RSS, cancel ratio, cross-shard traffic
//     and barrier counts, and the per-shard model counters. Every point
//     re-checks the model invariants (claim conservation, zero heap
//     fallbacks) so the sweep doubles as a gate.
//
// Knobs: --smoke runs only the N = 1000 point of part 1 with one replicate
// (the `scale-smoke` ctest entry); --sharded-smoke runs only the N = 10^5,
// K = 4 sharded point twice and asserts completion, determinism
// (digest-for-digest), claim conservation and zero heap fallbacks — no
// timing gates, so it cannot flake under a loaded CI box (the
// `scale-smoke-sharded` ctest entry); --adaptive raises the part-1
// replicate cap 4x and stops each point once its connection-latency
// interval is within ±eps (relative); --checkpoint makes the expensive
// part-2 grid crash-recoverable point by point (finished points are
// replayed from the checkpoint instead of re-run). Environment:
//   P2PANON_SCALE_MAX_N        largest part-1 sweep point (default 5000)
//   P2PANON_SCALE_REPLICATES   replicates per part-1 point (default 2)
//   P2PANON_SHARDED_MAX_N      largest sharded sweep point (default 100000)
//   P2PANON_SHARDED_DURATION_MIN  simulated minutes per point (default 20)
// plus the usual P2PANON_SEED / P2PANON_THREADS / P2PANON_CSV_DIR and the
// adaptive knobs P2PANON_ADAPTIVE / P2PANON_EPS / P2PANON_CHECKPOINT.
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "harness/checkpoint.hpp"
#include "harness/sharded_scenario.hpp"

namespace {

using namespace p2panon;
using bench::env_size;
using bench::ms_since;

// --- Part 1: scenario scale sweep -----------------------------------------

struct SweepPoint {
  std::size_t n;
  std::size_t degree;
  std::size_t pairs;
};

// Paper shape is N = 40, d = 5, 100 pairs x 20 connections. The sweep scales
// pairs with N and trades connection count per pair for overlay size so the
// largest point stays minutes, not hours.
constexpr SweepPoint kSweep[] = {
    {40, 5, 20},
    {200, 6, 100},
    {1000, 8, 500},
    {5000, 10, 2500},
};

harness::ScenarioConfig scaled_config(const SweepPoint& p, bool fault_mode) {
  harness::ScenarioConfig cfg = harness::paper_default_config(bench::base_seed());
  cfg.overlay.node_count = static_cast<std::uint32_t>(p.n);
  cfg.overlay.degree = static_cast<std::uint32_t>(p.degree);
  cfg.pair_count = static_cast<std::uint32_t>(p.pairs);
  cfg.connections_per_pair = 4;
  cfg.warmup = sim::minutes(30.0);
  cfg.pair_start_window = sim::minutes(45.0);
  if (fault_mode) {
    cfg.fault.link_loss = 0.05;
    cfg.fault.delay_jitter = 0.3;
    cfg.fault.crash_rate_per_hour = 2.0;
    cfg.fault.crash_recovery_mean = sim::minutes(10.0);
    cfg.fault.probe_false_negative = 0.1;
    cfg.async_setup.attempt_deadline = sim::minutes(3.0);
    cfg.data_phase.duration = 90.0;
    cfg.data_phase.keepalive_interval = 10.0;
  }
  return cfg;
}

struct SweepRow {
  std::size_t n = 0;
  const char* mode = "";
  std::size_t replicates = 0;
  double wall_ms = 0.0;
  std::uint64_t scheduled = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t fired = 0;
  std::uint64_t heap_allocs = 0;
  std::uint64_t completed = 0;
};

SweepRow run_sweep_point(const SweepPoint& p, bool fault_mode, std::size_t replicates,
                         const harness::AdaptiveConfig& adaptive) {
  const harness::ScenarioConfig cfg = scaled_config(p, fault_mode);
  // Adaptive mode: connection latency (relative ±eps) decides when a point
  // has enough replicates; the cap is 4x the configured count. Checkpointing
  // stays off for part 1 (points are cheap relative to part 2).
  const std::vector<harness::TrackedScenarioMetric> tracked = {
      {"connection_latency", &harness::ReplicatedResult::connection_latency, 0.0, true},
  };
  harness::AdaptiveConfig point_cfg = adaptive;
  point_cfg.checkpoint.clear();
  const std::size_t planned = adaptive.adaptive ? replicates * 4 : replicates;
  const auto start = std::chrono::steady_clock::now();
  const harness::AdaptiveReplicatedResult res = harness::run_replicated_adaptive(
      cfg, planned, point_cfg, tracked, &bench::shared_pool());
  const harness::ReplicatedResult& r = res.result;
  const auto elapsed = std::chrono::steady_clock::now() - start;
  SweepRow row;
  row.n = p.n;
  row.mode = fault_mode ? "fault" : "sync";
  row.replicates = res.outcome.replicates_used;
  row.wall_ms = std::chrono::duration<double, std::milli>(elapsed).count();
  row.scheduled = r.total_engine_events_scheduled;
  row.cancelled = r.total_engine_events_cancelled;
  row.fired = r.total_engine_events_fired;
  row.heap_allocs = r.total_engine_callback_heap_allocs;
  row.completed = r.total_connections_completed;
  return row;
}

// --- Part 2: sharded scale sweep -------------------------------------------

/// Peak resident set size of this process in MiB (ru_maxrss is KiB on Linux).
double peak_rss_mib() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

harness::ShardedScenarioConfig sharded_config(std::size_t n, std::uint32_t shards,
                                              double window) {
  harness::ShardedScenarioConfig cfg;
  cfg.seed = bench::base_seed();
  cfg.node_count = n;
  cfg.degree = 8;
  cfg.shard_count = shards;
  cfg.window = window;
  cfg.duration = sim::minutes(
      static_cast<double>(env_size("P2PANON_SHARDED_DURATION_MIN", 20)));
  return cfg;
}

struct ShardedRow {
  std::size_t n = 0;
  std::uint32_t shards = 0;
  double window = 0.0;
  double wall_ms = 0.0;
  double setup_ms = 0.0;        ///< zero-horizon call: world build only
  double events_per_sec = 0.0;  ///< events fired over (wall_ms - setup_ms)
  double cancel_ratio = 0.0;   ///< cancelled / scheduled — the workload shape
  double peak_rss_mib = 0.0;   ///< process high-water mark after the run
  std::uint64_t fired = 0;
  std::uint64_t heap_allocs = 0;
  std::uint64_t cross_shard_messages = 0;
  std::uint64_t window_barriers = 0;
  std::uint64_t digest = 0;
  bool claims_conserved = false;
  std::vector<harness::ShardCounters> per_shard;
};

/// Milliseconds `run(cfg)` takes at zero horizon: it builds the world
/// (overlay, shards, schedules) and simulates nothing, so it is the setup
/// share of a full call on the same config.
template <typename Run>
double setup_ms_of(harness::ShardedScenarioConfig cfg, Run run) {
  cfg.duration = 0.0;
  const auto start = std::chrono::steady_clock::now();
  (void)run(cfg);
  return ms_since(start);
}

/// Events per second of the run phase: `fired` over the wall time of a full
/// call minus its setup.
double run_events_per_sec(std::uint64_t fired, double wall_ms, double setup_ms) {
  const double run_ms = wall_ms - setup_ms;
  return run_ms > 0.0 ? static_cast<double>(fired) / (run_ms / 1000.0) : 0.0;
}

harness::ShardedScenarioResult run_on_shared_pool(const harness::ShardedScenarioConfig& cfg) {
  return harness::run_sharded_scenario(cfg, &bench::shared_pool());
}

ShardedRow run_sharded_point(const harness::ShardedScenarioConfig& cfg) {
  ShardedRow row;
  row.setup_ms = setup_ms_of(cfg, run_on_shared_pool);
  const auto start = std::chrono::steady_clock::now();
  const harness::ShardedScenarioResult r = run_on_shared_pool(cfg);
  row.wall_ms = ms_since(start);

  row.n = cfg.node_count;
  row.shards = cfg.shard_count;
  row.window = cfg.window;
  row.fired = r.engine.fired;
  row.events_per_sec = run_events_per_sec(r.engine.fired, row.wall_ms, row.setup_ms);
  row.cancel_ratio = r.engine.scheduled > 0
                         ? static_cast<double>(r.engine.cancelled) /
                               static_cast<double>(r.engine.scheduled)
                         : 0.0;
  row.peak_rss_mib = peak_rss_mib();
  row.heap_allocs = r.engine.callback_heap_allocs;
  row.cross_shard_messages = r.cross_shard_messages;
  row.window_barriers = r.window_barriers;
  row.digest = r.digest;
  row.claims_conserved = r.claims_settled == r.hops_forwarded;
  row.per_shard = r.per_shard;
  return row;
}

void print_sharded_row(const ShardedRow& row) {
  std::cout << "sharded n=" << row.n << " K=" << row.shards << " W=" << row.window
            << ": " << row.wall_ms << " ms (setup " << row.setup_ms << " ms), "
            << row.events_per_sec << " events/s, cancel_ratio=" << row.cancel_ratio
            << " cross_shard=" << row.cross_shard_messages
            << " barriers=" << row.window_barriers << " rss=" << row.peak_rss_mib
            << " MiB\n";
}

}  // namespace

// --- Output ----------------------------------------------------------------

namespace {

void write_json(const std::vector<SweepRow>& sweep) {
  std::ostringstream out;
  out << "{\n  \"sweep\": [\n";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const SweepRow& r = sweep[i];
    out << "    {\"n\": " << r.n << ", \"mode\": \"" << r.mode
        << "\", \"replicates\": " << r.replicates << ", \"wall_ms\": " << r.wall_ms
        << ", \"events_scheduled\": " << r.scheduled
        << ", \"events_cancelled\": " << r.cancelled
        << ", \"events_fired\": " << r.fired
        << ", \"callback_heap_allocs\": " << r.heap_allocs
        << ", \"connections_completed\": " << r.completed << "}"
        << (i + 1 < sweep.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
  bench::write_bench_json("BENCH_sim_engine.json", out.str());
}

void write_sharded_json(const std::vector<ShardedRow>& rows) {
  std::ostringstream out;
  const unsigned hw_threads = std::thread::hardware_concurrency();
  out << "{\n  \"threads\": " << bench::env_size("P2PANON_THREADS", hw_threads)
      << ",\n  \"hardware_threads\": " << hw_threads << ",\n  \"sharded_sweep\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ShardedRow& r = rows[i];
    out << "    {\"n\": " << r.n << ", \"shards\": " << r.shards
        << ", \"window_s\": " << r.window << ", \"wall_ms\": " << r.wall_ms
        << ", \"setup_ms\": " << r.setup_ms << ", \"events_fired\": " << r.fired
        << ", \"events_per_sec\": " << r.events_per_sec
        << ", \"cancel_ratio\": " << r.cancel_ratio
        << ", \"peak_rss_mib\": " << r.peak_rss_mib
        << ", \"callback_heap_allocs\": " << r.heap_allocs
        << ", \"cross_shard_messages\": " << r.cross_shard_messages
        << ", \"window_barriers\": " << r.window_barriers
        << ", \"digest\": \"" << std::hex << r.digest << std::dec << "\""
        << ", \"claims_conserved\": " << (r.claims_conserved ? "true" : "false")
        << ", \"per_shard\": [";
    for (std::size_t s = 0; s < r.per_shard.size(); ++s) {
      const harness::ShardCounters& c = r.per_shard[s];
      out << (s == 0 ? "" : ", ") << "{\"launched\": " << c.connections_launched
          << ", \"acked\": " << c.connections_acked
          << ", \"timeouts\": " << c.ack_timeouts
          << ", \"hops\": " << c.hops_forwarded
          << ", \"churn\": " << c.churn_events
          << ", \"claims_settled\": " << c.claims_settled << "}";
    }
    out << "]}" << (i + 1 < rows.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
  bench::write_bench_json("BENCH_scale_overlay.json", out.str());
}

// --- Part-2 checkpointing: one Checkpoint record set per sharded point ----
// Wall-clock fields are checkpointed too (bit-exact, via encode_double):
// a resumed sweep reports the timing the point actually ran with, not a
// re-measure of a skipped run.

std::string sharded_point_prefix(std::size_t n, std::uint32_t shards, double window) {
  std::ostringstream key;
  key << "sh." << n << "-" << shards << "-" << window << ".";
  return key.str();
}

std::uint64_t sharded_point_fp(const harness::ShardedScenarioConfig& cfg) {
  std::uint64_t h = harness::fnv1a_bytes(harness::fnv1a_init(), "scale_overlay.sharded");
  h = harness::fnv1a_mix(h, cfg.seed);
  h = harness::fnv1a_mix(h, cfg.node_count);
  h = harness::fnv1a_mix(h, cfg.degree);
  h = harness::fnv1a_mix(h, cfg.shard_count);
  h = harness::fnv1a_double(h, cfg.window);
  h = harness::fnv1a_double(h, cfg.duration);
  return h;
}

void store_sharded_row(harness::Checkpoint& ckpt, const std::string& prefix,
                       std::uint64_t fp, const ShardedRow& row) {
  using harness::encode_double;
  using harness::encode_u64;
  ckpt.set(prefix + "fp", encode_u64(fp));
  ckpt.set(prefix + "wall_ms", encode_double(row.wall_ms));
  ckpt.set(prefix + "setup_ms", encode_double(row.setup_ms));
  ckpt.set(prefix + "events_per_sec", encode_double(row.events_per_sec));
  ckpt.set(prefix + "cancel_ratio", encode_double(row.cancel_ratio));
  ckpt.set(prefix + "peak_rss_mib", encode_double(row.peak_rss_mib));
  ckpt.set(prefix + "fired", encode_u64(row.fired));
  ckpt.set(prefix + "heap_allocs", encode_u64(row.heap_allocs));
  ckpt.set(prefix + "cross_shard", encode_u64(row.cross_shard_messages));
  ckpt.set(prefix + "barriers", encode_u64(row.window_barriers));
  ckpt.set(prefix + "digest", encode_u64(row.digest));
  ckpt.set(prefix + "claims_conserved", row.claims_conserved ? "1" : "0");
  ckpt.set(prefix + "shards.count", encode_u64(row.per_shard.size()));
  for (std::size_t s = 0; s < row.per_shard.size(); ++s) {
    const harness::ShardCounters& c = row.per_shard[s];
    std::ostringstream val;
    val << encode_u64(c.connections_launched) << " " << encode_u64(c.connections_acked) << " "
        << encode_u64(c.ack_timeouts) << " " << encode_u64(c.hops_forwarded) << " "
        << encode_u64(c.churn_events) << " " << encode_u64(c.claims_settled);
    ckpt.set(prefix + "shard." + std::to_string(s), val.str());
  }
}

bool load_sharded_row(const harness::Checkpoint& ckpt, const std::string& prefix,
                      std::uint64_t fp, const harness::ShardedScenarioConfig& cfg,
                      ShardedRow& row) {
  using harness::decode_double;
  using harness::decode_u64;
  const auto get = [&](const char* key) { return ckpt.find(prefix + key); };
  const std::string* stored_fp = get("fp");
  if (stored_fp == nullptr || decode_u64(*stored_fp) != fp) return false;
  const auto get_d = [&](const char* key, double& out) {
    const std::string* v = get(key);
    const auto x = v != nullptr ? decode_double(*v) : std::nullopt;
    if (!x) return false;
    out = *x;
    return true;
  };
  const auto get_u = [&](const char* key, std::uint64_t& out) {
    const std::string* v = get(key);
    const auto x = v != nullptr ? decode_u64(*v) : std::nullopt;
    if (!x) return false;
    out = *x;
    return true;
  };
  row.n = cfg.node_count;
  row.shards = cfg.shard_count;
  row.window = cfg.window;
  if (!get_d("wall_ms", row.wall_ms) || !get_d("setup_ms", row.setup_ms) ||
      !get_d("events_per_sec", row.events_per_sec) ||
      !get_d("cancel_ratio", row.cancel_ratio) || !get_d("peak_rss_mib", row.peak_rss_mib) ||
      !get_u("fired", row.fired) || !get_u("heap_allocs", row.heap_allocs) ||
      !get_u("cross_shard", row.cross_shard_messages) ||
      !get_u("barriers", row.window_barriers) || !get_u("digest", row.digest)) {
    return false;
  }
  const std::string* conserved = get("claims_conserved");
  if (conserved == nullptr || (*conserved != "0" && *conserved != "1")) return false;
  row.claims_conserved = (*conserved == "1");
  std::uint64_t shard_count = 0;
  if (!get_u("shards.count", shard_count)) return false;
  row.per_shard.assign(static_cast<std::size_t>(shard_count), {});
  for (std::size_t s = 0; s < row.per_shard.size(); ++s) {
    const std::string* v = ckpt.find(prefix + "shard." + std::to_string(s));
    if (v == nullptr) return false;
    std::istringstream in(*v);
    std::string launched, acked, timeouts, hops, churn, claims;
    if (!(in >> launched >> acked >> timeouts >> hops >> churn >> claims)) return false;
    const auto l = decode_u64(launched);
    const auto a = decode_u64(acked);
    const auto t = decode_u64(timeouts);
    const auto hp = decode_u64(hops);
    const auto ch = decode_u64(churn);
    const auto cl = decode_u64(claims);
    if (!l || !a || !t || !hp || !ch || !cl) return false;
    harness::ShardCounters& c = row.per_shard[s];
    c.connections_launched = *l;
    c.connections_acked = *a;
    c.ack_timeouts = *t;
    c.hops_forwarded = *hp;
    c.churn_events = *ch;
    c.claims_settled = *cl;
  }
  return true;
}

/// Model-invariant gates on one sharded point (never timing — they must hold
/// on an arbitrarily loaded box).
int check_sharded_row(const ShardedRow& row) {
  int rc = 0;
  if (!row.claims_conserved) {
    std::cerr << "FAIL: claim ledger not conserved at n=" << row.n
              << " K=" << row.shards << "\n";
    rc = 1;
  }
  if (row.heap_allocs != 0) {
    std::cerr << "FAIL: " << row.heap_allocs
              << " callback heap fallbacks at n=" << row.n << " K=" << row.shards
              << "\n";
    rc = 1;
  }
  if (row.shards > 1 && row.cross_shard_messages == 0) {
    std::cerr << "FAIL: K=" << row.shards << " routed nothing cross-shard at n="
              << row.n << "\n";
    rc = 1;
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  const harness::AdaptiveConfig adaptive = bench::parse_sweep_options(argc, argv, 0.05);
  bool smoke = false;
  bool sharded_smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--sharded-smoke") == 0) sharded_smoke = true;
  }

  if (sharded_smoke) {
    // Tier-1 gate: the N = 10^5, K = 4 point must complete, conserve the
    // claim ledger, stay allocation-free, actually route cross-shard, and —
    // run twice — reproduce its digest bit for bit. No timing assertions.
    const harness::ShardedScenarioConfig cfg = sharded_config(100'000, 4, 30.0);
    const ShardedRow first = run_sharded_point(cfg);
    print_sharded_row(first);
    const ShardedRow second = run_sharded_point(cfg);
    print_sharded_row(second);
    write_sharded_json({first, second});
    int rc = check_sharded_row(first) | check_sharded_row(second);
    if (first.digest != second.digest) {
      std::cerr << "FAIL: sharded smoke digests diverged across identical runs\n";
      rc = 1;
    }
    return rc;
  }

  const std::size_t max_n = env_size("P2PANON_SCALE_MAX_N", 5000);
  const std::size_t replicates =
      smoke ? 1 : env_size("P2PANON_SCALE_REPLICATES", 2);

  std::vector<SweepRow> sweep;
  for (const SweepPoint& p : kSweep) {
    if (smoke ? p.n != 1000 : p.n > max_n) continue;
    for (const bool fault_mode : {false, true}) {
      const SweepRow row = run_sweep_point(p, fault_mode, replicates, adaptive);
      std::cout << "sweep n=" << row.n << " mode=" << row.mode << ": " << row.wall_ms
                << " ms, scheduled=" << row.scheduled << " cancelled=" << row.cancelled
                << " fired=" << row.fired << " heap_allocs=" << row.heap_allocs
                << " completed=" << row.completed << "\n";
      sweep.push_back(row);
    }
  }

  write_json(sweep);

  // Part 2: shard-count x window-size sweep at population scale. Each N gets
  // the serial oracle as the single-threaded baseline, the K sweep at the
  // default window, and the window sweep at K = 4.
  int rc = 0;
  if (!smoke) {
    const std::size_t sharded_max_n = env_size("P2PANON_SHARDED_MAX_N", 100'000);
    std::vector<ShardedRow> sharded_rows;

    // Crash recovery for the expensive grid: finished points are replayed
    // from the checkpoint; only missing points run.
    const bool use_ckpt = !adaptive.checkpoint.empty();
    harness::Checkpoint ckpt;
    if (use_ckpt) {
      if (auto loaded = harness::Checkpoint::load(adaptive.checkpoint)) {
        ckpt = std::move(*loaded);
      }
    }
    auto sharded_point = [&](const harness::ShardedScenarioConfig& cfg) {
      const std::string prefix =
          sharded_point_prefix(cfg.node_count, cfg.shard_count, cfg.window);
      const std::uint64_t fp = sharded_point_fp(cfg);
      ShardedRow row;
      if (use_ckpt && load_sharded_row(ckpt, prefix, fp, cfg, row)) {
        std::cout << "sharded n=" << row.n << " K=" << row.shards << " W=" << row.window
                  << ": replayed from checkpoint\n";
        return row;
      }
      row = run_sharded_point(cfg);
      if (use_ckpt) {
        store_sharded_row(ckpt, prefix, fp, row);
        (void)ckpt.save(adaptive.checkpoint);
      }
      return row;
    };

    for (const std::size_t n : {std::size_t{10'000}, std::size_t{100'000},
                                std::size_t{1'000'000}}) {
      if (n > sharded_max_n) continue;

      const harness::ShardedScenarioConfig base = sharded_config(n, 1, 30.0);
      const double oracle_setup_ms = setup_ms_of(base, harness::run_serial_oracle);
      const auto oracle_start = std::chrono::steady_clock::now();
      const harness::ShardedScenarioResult oracle = harness::run_serial_oracle(base);
      const double oracle_ms = ms_since(oracle_start);
      const double oracle_eps = run_events_per_sec(oracle.engine.fired, oracle_ms, oracle_setup_ms);
      std::cout << "sharded n=" << n << " serial-oracle: " << oracle_ms << " ms (setup "
                << oracle_setup_ms << " ms), " << oracle_eps << " events/s\n";

      double k8_eps = 0.0;
      for (const std::uint32_t shards : {1u, 2u, 4u, 8u}) {
        const ShardedRow row = sharded_point(sharded_config(n, shards, 30.0));
        print_sharded_row(row);
        rc |= check_sharded_row(row);
        if (shards == 8) k8_eps = row.events_per_sec;
        sharded_rows.push_back(row);
      }
      for (const double window : {10.0, 120.0}) {
        const ShardedRow row = sharded_point(sharded_config(n, 4, window));
        print_sharded_row(row);
        rc |= check_sharded_row(row);
        sharded_rows.push_back(row);
      }

      // Throughput gate — only where the hardware can possibly deliver it
      // (K = 8 windows need 8 cores to overlap; a 1-2 core CI box would
      // fail on contention, not on a regression).
      if (std::thread::hardware_concurrency() >= 8 && n >= 10'000 &&
          k8_eps < 3.0 * oracle_eps) {
        std::cerr << "FAIL: K=8 throughput at n=" << n << " is " << k8_eps
                  << " events/s < 3x serial oracle (" << oracle_eps << ")\n";
        rc = 1;
      }
    }
    write_sharded_json(sharded_rows);
  }

  // Acceptance gate, enforced here so scale-smoke fails loudly in CI: no
  // scenario callback may fall back to the heap.
  for (const SweepRow& r : sweep) {
    if (r.heap_allocs != 0) {
      std::cerr << "FAIL: " << r.heap_allocs << " callback heap fallbacks at n="
                << r.n << " mode=" << r.mode << "\n";
      rc = 1;
    }
  }
  return rc;
}
