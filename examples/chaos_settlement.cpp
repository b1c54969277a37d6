// Chaos sweep for the crash-tolerant settlement lifecycle: hundreds of
// randomized, seeded fault schedules, each a full scenario whose settlement
// phase runs under a different mix of lost/delayed claims, initiator and
// forwarder crashes, deadlines — and (on most schedules) message-plane
// faults underneath. After every schedule the money-conservation invariants
// are checked exactly, in integer milli-credits:
//
//   C1  bank money + outstanding coins unchanged end to end;
//   C2  every settlement terminal (Closed | Abandoned | Expired), none open;
//   C3  escrow in == payouts + refunds (no residuals: every terminalisation
//       drains its escrow one way or the other);
//   C4  bank-side audit journal reconciles against node-side settlement
//       reports (replay rebuilds the bank state; per-account escrow payouts
//       and refund totals match the reports) — the double-pay detector;
//   C5  claims that raced past a terminal settlement were refused, and an
//       expired settlement refunded everything it took in.
//
// Any violated invariant names the schedule (its seed reproduces the run
// bit for bit) and exits non-zero, so the ctest `chaos` label is a gate.
//
//   ./chaos_settlement [seed] [schedules] [--adaptive] [--eps X]
//                      [--checkpoint PATH] (default 42, 200)
//
// A seed or schedule count that is not a decimal integer, a zero schedule
// count, an extra argument or --help prints the usage to stderr and exits 2
// before any schedule runs.
//
// The sweep runs through harness::AdaptiveRunner (DESIGN.md §3.12):
//  * --checkpoint persists the sweep state after every batch, so a killed
//    sweep resumes where it stopped and finishes with numerically identical
//    aggregates (relative paths land in $P2PANON_CSV_DIR);
//  * --adaptive stops the sweep once the anytime interval on the
//    closed-settlement share is within ±eps AND the Hoeffding lower bound
//    on the invariant pass rate clears its threshold — `schedules` stays
//    the hard cap, and any observed violation still aborts immediately.
//
// Phase 2 — the sharded settlement plane under the same chaos: randomized
// open / aggregated-claim / close / expire schedules driven directly against
// payment::ShardedSettlementPlane at B in {2, 3, 4} bank partitions, with
// lost aggregates, forged aggregate MACs and skipped closes. After every
// schedule the reconciliation pass asserts C1-C5 *per bank partition* (each
// partition is an independent money universe: conserved, all settlements
// terminal, escrows drained, journal replay + payouts match, expired
// refunds) AND globally after the merge (merged conservation, no settlement
// nonce opened on two partitions). Any violation names the schedule and exits
// non-zero.
//
// Summary counters are written atomically to BENCH_chaos_settlement.json
// (in $P2PANON_CSV_DIR when set, else the cwd), including schedules-used
// vs schedules-planned for both phases.
#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <vector>

#include "common.hpp"
#include "harness/adaptive.hpp"
#include "harness/checkpoint.hpp"
#include "harness/scenario.hpp"
#include "payment/sharded_settlement.hpp"
#include "sim/rng.hpp"

namespace {

using namespace p2panon;

/// One randomized fault schedule. Every knob is drawn from the schedule's
/// own stream child, so schedule i of seed s is a fixed, replayable world.
harness::ScenarioConfig schedule_config(std::uint64_t seed, std::uint64_t index) {
  sim::rng::Stream draw = sim::rng::Stream(seed).child("chaos-schedule", index);

  harness::ScenarioConfig cfg;
  cfg.seed = seed * 1000003 + index;  // distinct scenario universe per schedule
  cfg.overlay.node_count = 16;
  cfg.overlay.degree = 4;
  cfg.pair_count = 5;
  cfg.connections_per_pair = 3;
  cfg.warmup = sim::minutes(20.0);
  cfg.pair_start_window = sim::minutes(30.0);

  // Bank plane: always chaotic (this is the subject under test).
  cfg.fault.bank.claim_loss = draw.uniform(0.0, 0.5);
  cfg.fault.bank.claim_delay_mean = draw.uniform(0.0, sim::minutes(10.0));
  cfg.fault.bank.initiator_crash = draw.uniform(0.0, 0.6);
  cfg.fault.bank.forwarder_crash = draw.uniform(0.0, 0.4);
  cfg.fault.bank.claim_deadline = draw.uniform(sim::minutes(5.0), sim::minutes(30.0));
  cfg.fault.bank.close_after = draw.uniform(sim::minutes(1.0), sim::minutes(15.0));
  cfg.fault.bank.claim_spread = draw.uniform(30.0, sim::minutes(8.0));
  cfg.fault.bank.lifecycle = true;  // lifecycle on even if every draw above is ~0

  // Message/liveness plane underneath, on 3 of 4 schedules; the rest isolate
  // the bank plane on the synchronous data path.
  if (index % 4 != 3) {
    cfg.fault.link_loss = draw.uniform(0.0, 0.08);
    cfg.fault.delay_jitter = draw.uniform(0.0, 0.4);
    cfg.fault.crash_rate_per_hour = draw.uniform(0.0, 6.0);
    // Half of these worlds never let a crashed node back up.
    cfg.fault.crash_recovery_mean =
        draw.bernoulli(0.5) ? 0.0 : draw.uniform(sim::minutes(2.0), sim::minutes(15.0));
    cfg.fault.probe_false_negative = draw.uniform(0.0, 0.15);
    cfg.async_setup.attempt_deadline = sim::minutes(3.0);
    cfg.data_phase.duration = 60.0;
    cfg.data_phase.keepalive_interval = 10.0;
  }
  return cfg;
}

// The AdaptiveRunner metric columns, in order. The first two gate early
// stopping; the kSum counters are exact totals for the JSON artifact.
enum Column : std::size_t {
  kInvariants = 0,  // pass-rate gate (always 1.0 — violations abort)
  kClosedShare,     // mean gate: closed settlements / pairs per schedule
  kClosed,
  kAbandoned,
  kExpired,
  kProrata,
  kClaimsSubmitted,
  kClaimsLost,
  kClaimsRejected,
  kClaimsAfterTerminal,
  kEscrowMilli,
  kPaidMilli,
  kRefundedMilli,
  kColumnCount,
};

std::vector<harness::MetricSpec> chaos_specs() {
  using Kind = harness::MetricSpec::Kind;
  std::vector<harness::MetricSpec> specs(kColumnCount);
  // An anytime-valid >= 80% lower bound on the invariant pass rate is
  // certifiable within a few hundred schedules; a single observed violation
  // aborts the whole sweep regardless, so the observed rate is always 1.
  specs[kInvariants] = {"invariants", Kind::kPassRate, 0.0, false, 0.8};
  specs[kClosedShare] = {"closed_share", Kind::kMean, 0.0, false, 0.0};
  const char* sums[] = {"closed",         "abandoned",      "expired",
                        "prorata",        "claims_submitted", "claims_lost",
                        "claims_rejected", "claims_after_terminal", "escrow_milli",
                        "paid_milli",     "refunded_milli"};
  for (std::size_t i = 0; i < std::size(sums); ++i) {
    specs[kClosed + i] = {sums[i], Kind::kSum, 0.0, false, 0.0};
  }
  return specs;
}

// --- Phase 2: the sharded settlement plane under chaos ---------------------

enum PlaneColumn : std::size_t {
  kPlaneInvariants = 0,  // pass-rate gate (violations abort)
  kPlaneClosedShare,
  kPlaneClosed,
  kPlaneAbandoned,
  kPlaneExpired,
  kPlaneProrata,
  kPlaneAggregates,
  kPlaneAggregatesRefused,
  kPlaneReceipts,
  kPlaneEscrowMilli,
  kPlanePaidMilli,
  kPlaneRefundedMilli,
  kPlaneColumnCount,
};

std::vector<harness::MetricSpec> plane_specs() {
  using Kind = harness::MetricSpec::Kind;
  std::vector<harness::MetricSpec> specs(kPlaneColumnCount);
  specs[kPlaneInvariants] = {"plane_invariants", Kind::kPassRate, 0.0, false, 0.8};
  specs[kPlaneClosedShare] = {"plane_closed_share", Kind::kMean, 0.0, false, 0.0};
  const char* sums[] = {"closed",     "abandoned", "expired",      "prorata",
                        "aggregates", "refused",   "receipts",     "escrow_milli",
                        "paid_milli", "refunded_milli"};
  for (std::size_t i = 0; i < std::size(sums); ++i) {
    specs[kPlaneClosed + i] = {sums[i], Kind::kSum, 0.0, false, 0.0};
  }
  return specs;
}

/// One randomized schedule against the plane itself: B in {2, 3, 4} bank
/// partitions, a dozen settlements with random paths, lost aggregates,
/// forged aggregate MACs, skipped closes, then the deadline sweep and the
/// merge reconciliation. Asserts C1-C5 per bank partition AND globally.
std::vector<double> run_plane_schedule(std::uint64_t seed, std::size_t index) {
  using namespace p2panon::payment;
  sim::rng::Stream draw = sim::rng::Stream(seed).child("plane-schedule", index);
  const std::uint32_t partitions = 2 + static_cast<std::uint32_t>(index % 3);
  constexpr std::size_t kNodes = 12;
  constexpr std::size_t kSettlements = 12;
  const Amount p_f = from_credits(10.0);
  const Amount p_r = from_credits(20.0);

  ShardedSettlementPlane plane(partitions, kNodes, from_credits(1000.0),
                               sim::rng::Stream(seed).child("plane-bank", index));
  auto fail = [&](const char* what, std::uint32_t part) {
    std::cerr << "plane schedule " << index << " (seed " << seed << ", B = " << partitions
              << "): " << what;
    if (part != UINT32_MAX) std::cerr << " in partition " << part;
    std::cerr << "\n";
    std::exit(1);
  };

  std::uint64_t closed = 0;
  for (std::size_t s = 0; s < kSettlements; ++s) {
    const auto key = static_cast<SettlementKey>(index * 1000 + s);
    const auto pair = static_cast<net::PairId>(s);
    const auto initiator = static_cast<net::NodeId>(draw.uniform_int(0, kNodes - 1));
    const auto responder = static_cast<net::NodeId>((initiator + 1) % kNodes);

    // 1-3 connections, each through 1-3 distinct forwarders.
    std::vector<PathRecord> records;
    std::vector<std::pair<net::NodeId, ForwardReceipt>> receipts;
    const auto conns = static_cast<std::uint32_t>(draw.uniform_int(1, 3));
    std::size_t instances = 0;
    for (std::uint32_t j = 0; j < conns; ++j) {
      const std::size_t hops = static_cast<std::size_t>(draw.uniform_int(1, 3));
      std::vector<net::NodeId> path{initiator};
      for (const std::size_t pick : draw.sample_indices(kNodes - 2, hops)) {
        // Map picks onto nodes \ {initiator, responder}.
        auto v = static_cast<net::NodeId>(pick);
        if (v >= std::min(initiator, responder)) ++v;
        if (v >= std::max(initiator, responder)) ++v;
        path.push_back(v);
      }
      path.push_back(responder);
      records.push_back(PathRecord{j, initiator, responder,
                                   {path.begin() + 1, path.end() - 1}});
      for (std::size_t h = 1; h + 1 < path.size(); ++h) {
        receipts.emplace_back(path[h], make_receipt(plane.mac_key_of(path[h]), pair, j,
                                                    path[h], path[h - 1], path[h + 1]));
        ++instances;
      }
    }

    const Amount escrow = static_cast<Amount>(instances) * p_f + p_r;
    const auto handle = plane.open_settlement(key, pair, initiator, escrow,
                                              SettlementTerms{p_f, p_r}, records,
                                              /*deadline=*/100.0);
    if (!handle.has_value()) fail("open_settlement refused a funded escrow", UINT32_MAX);

    // Aggregate per forwarder; lose ~30%, forge ~10% of aggregate MACs.
    for (net::NodeId fwd = 0; fwd < kNodes; ++fwd) {
      AggregatedClaim claim;
      claim.claimant = plane.account_of(fwd);
      claim.epoch = 0;
      for (const auto& [f, r] : receipts) {
        if (f == fwd) claim.receipts.push_back(r);
      }
      if (claim.receipts.empty() || draw.bernoulli(0.3)) continue;
      seal_aggregated_claim(plane.mac_key_of(fwd), key, claim);
      if (draw.bernoulli(0.1)) claim.aggregate_mac ^= 1;  // forged: refused whole
      (void)plane.submit_aggregated_claim(key, *handle, claim);
    }
    if (draw.bernoulli(0.6)) {
      plane.close_settlement(*handle);
      ++closed;
    }
  }
  (void)plane.expire_due(1000.0);

  const PlaneReconciliation rec = plane.reconcile();
  for (std::uint32_t b = 0; b < partitions; ++b) {
    const PartitionAudit& a = rec.partitions[b];
    if (!a.conserved) fail("C1: money + coins not conserved", b);
    if (!a.all_terminal) fail("C2: a settlement never terminalised", b);
    if (!a.escrows_drained) fail("C3: escrow in != payouts + refunds", b);
    if (!a.replay_ok || !a.payouts_match) fail("C4: journal does not reconcile", b);
    if (!a.expired_refunded) fail("C5: an expired settlement kept money", b);
  }
  if (!rec.global_conserved) fail("C1 (global): merged balances not conserved", UINT32_MAX);
  if (rec.cross_partition_replays != 0) {
    fail("C4 (global): a settlement nonce was opened on two partitions", UINT32_MAX);
  }
  if (rec.expired > 0 && closed == kSettlements) {
    fail("C5 (global): expiries reported on an all-closed schedule", UINT32_MAX);
  }

  std::vector<double> row(kPlaneColumnCount, 0.0);
  row[kPlaneInvariants] = 1.0;
  row[kPlaneClosedShare] = static_cast<double>(rec.closed) / kSettlements;
  row[kPlaneClosed] = static_cast<double>(rec.closed);
  row[kPlaneAbandoned] = static_cast<double>(rec.abandoned);
  row[kPlaneExpired] = static_cast<double>(rec.expired);
  row[kPlaneProrata] = static_cast<double>(rec.prorata);
  row[kPlaneAggregates] = static_cast<double>(plane.aggregates_submitted());
  row[kPlaneAggregatesRefused] = static_cast<double>(plane.aggregates_refused());
  row[kPlaneReceipts] = static_cast<double>(plane.receipts_batched());
  row[kPlaneEscrowMilli] = static_cast<double>(rec.escrow_milli);
  row[kPlanePaidMilli] = static_cast<double>(rec.paid_milli);
  row[kPlaneRefundedMilli] = static_cast<double>(rec.refunded_milli);
  return row;
}

void usage(const char* prog) {
  std::cerr << "usage: " << prog
            << " [seed] [schedules] [--adaptive] [--eps X] [--checkpoint PATH]\n"
               "  seed       base seed, a non-negative integer (default 42)\n"
               "  schedules  the sweep's schedule cap, at least 1 (default 200)\n";
}

/// Positional argument `index` as a count of at least `min` (decimal digits
/// only, no sign, within 64 bits; the simulate CLI's count rule), or
/// `fallback` when it is absent. Anything else prints the usage and exits 2.
std::uint64_t positional_count(int argc, char** argv, int index, const char* name,
                               std::uint64_t min, std::uint64_t fallback) {
  if (index >= argc) return fallback;
  const char* v = argv[index];
  char* end = nullptr;
  errno = 0;
  const unsigned long long n = std::strtoull(v, &end, 10);
  if (std::isdigit(static_cast<unsigned char>(*v)) == 0 || *end != '\0' || errno == ERANGE ||
      n < min) {
    std::cerr << "invalid " << name << ": '" << v << "' (want an integer of at least " << min
              << ")\n";
    usage(argv[0]);
    std::exit(2);
  }
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  // Chaotic schedules have high across-schedule variance (closed-share
  // s ~ 0.3): ±0.1 cannot close within the 200-schedule cap, ±0.12
  // certifies at 128 schedules (seed 42). Override with --eps.
  harness::AdaptiveConfig adaptive = bench::parse_sweep_options(argc, argv, 0.12);
  const bool help = std::any_of(argv + 1, argv + argc,
                                [](const char* a) { return std::strcmp(a, "--help") == 0; });
  if (help || argc > 3) {
    usage(argv[0]);
    return 2;
  }
  const std::uint64_t seed = positional_count(argc, argv, 1, "seed", 0, 42);
  const std::uint64_t schedules = positional_count(argc, argv, 2, "schedules", 1, 200);

  auto run_schedule = [&](std::size_t i) {
    const harness::ScenarioConfig cfg = schedule_config(seed, i);
    const harness::ScenarioResult r = harness::ScenarioRunner(cfg).run();
    auto fail = [&](const char* what) {
      std::cerr << "chaos schedule " << i << " (seed " << seed << "): " << what << "\n";
      std::exit(1);
    };

    if (!r.payment_conserved) fail("C1: bank money + outstanding coins not conserved");
    const std::uint64_t terminal =
        r.settlements_closed + r.settlements_abandoned + r.settlements_expired;
    if (terminal != cfg.pair_count) fail("C2: a settlement never terminalised");
    if (r.settlement_escrow_milli != r.settlement_paid_milli + r.settlement_refunded_milli) {
      fail("C3: escrow in != payouts + refunds (residual money)");
    }
    if (!r.settlement_reconciled) fail("C4: audit journal does not reconcile with reports");
    if (r.settlements_expired > 0 && r.settlement_refunded_milli <= 0) {
      fail("C5: expired settlements must refund");
    }

    std::vector<double> row(kColumnCount, 0.0);
    row[kInvariants] = 1.0;  // reaching here means every invariant held
    row[kClosedShare] =
        static_cast<double>(r.settlements_closed) / static_cast<double>(cfg.pair_count);
    row[kClosed] = static_cast<double>(r.settlements_closed);
    row[kAbandoned] = static_cast<double>(r.settlements_abandoned);
    row[kExpired] = static_cast<double>(r.settlements_expired);
    row[kProrata] = static_cast<double>(r.settlements_prorata);
    row[kClaimsSubmitted] = static_cast<double>(r.claims_submitted);
    row[kClaimsLost] = static_cast<double>(r.claims_lost);
    row[kClaimsRejected] = static_cast<double>(r.claims_rejected);
    row[kClaimsAfterTerminal] = static_cast<double>(r.claims_after_terminal);
    row[kEscrowMilli] = static_cast<double>(r.settlement_escrow_milli);
    row[kPaidMilli] = static_cast<double>(r.settlement_paid_milli);
    row[kRefundedMilli] = static_cast<double>(r.settlement_refunded_milli);
    return row;
  };

  // Schedules run serially (a violation must abort deterministically at the
  // first failing schedule index).
  harness::AdaptiveRunner runner(adaptive, chaos_specs());
  std::uint64_t fp = harness::fnv1a_bytes(harness::fnv1a_init(), "chaos_settlement");
  fp = harness::fnv1a_mix(fp, seed);
  const harness::AdaptiveCellResult cell =
      runner.run_cell("sweep", fp, schedules, run_schedule, nullptr);

  const auto total = [&](Column c) {
    return static_cast<std::int64_t>(cell.sums[c]);
  };
  std::cout << "chaos settlement sweep: " << cell.outcome.replicates_used << "/"
            << cell.outcome.replicates_planned << " schedules"
            << (cell.outcome.stopped_early ? " (stopped early)" : "")
            << (cell.outcome.resumed ? " (resumed)" : "") << ", " << total(kClosed)
            << " closed / " << total(kAbandoned) << " abandoned (" << total(kProrata)
            << " pro-rata) / " << total(kExpired) << " expired; " << total(kClaimsSubmitted)
            << " claims (" << total(kClaimsLost) << " lost, " << total(kClaimsRejected)
            << " rejected, " << total(kClaimsAfterTerminal)
            << " after-terminal); all invariants held\n";

  // Phase 2: the sharded settlement plane under its own chaos schedules.
  harness::AdaptiveRunner plane_runner(adaptive, plane_specs());
  std::uint64_t plane_fp = harness::fnv1a_bytes(harness::fnv1a_init(), "chaos_plane");
  plane_fp = harness::fnv1a_mix(plane_fp, seed);
  const harness::AdaptiveCellResult plane_cell = plane_runner.run_cell(
      "plane", plane_fp, schedules, [&](std::size_t i) { return run_plane_schedule(seed, i); },
      nullptr);
  const auto plane_total = [&](PlaneColumn c) {
    return static_cast<std::int64_t>(plane_cell.sums[c]);
  };
  std::cout << "chaos plane sweep: " << plane_cell.outcome.replicates_used << "/"
            << plane_cell.outcome.replicates_planned << " schedules (B in {2, 3, 4}), "
            << plane_total(kPlaneClosed) << " closed / " << plane_total(kPlaneAbandoned)
            << " abandoned (" << plane_total(kPlaneProrata) << " pro-rata) / "
            << plane_total(kPlaneExpired) << " expired; " << plane_total(kPlaneAggregates)
            << " aggregates (" << plane_total(kPlaneAggregatesRefused) << " refused) over "
            << plane_total(kPlaneReceipts)
            << " receipts; C1-C5 held in every partition and globally\n";

  std::ostringstream json;
  json << "{\n"
       << "  \"schedules\": " << cell.outcome.replicates_used << ",\n"
       << "  \"settlements_closed\": " << total(kClosed) << ",\n"
       << "  \"settlements_abandoned\": " << total(kAbandoned) << ",\n"
       << "  \"settlements_expired\": " << total(kExpired) << ",\n"
       << "  \"settlements_prorata\": " << total(kProrata) << ",\n"
       << "  \"claims_submitted\": " << total(kClaimsSubmitted) << ",\n"
       << "  \"claims_lost\": " << total(kClaimsLost) << ",\n"
       << "  \"claims_rejected\": " << total(kClaimsRejected) << ",\n"
       << "  \"claims_after_terminal\": " << total(kClaimsAfterTerminal) << ",\n"
       << "  \"escrow_milli\": " << total(kEscrowMilli) << ",\n"
       << "  \"paid_milli\": " << total(kPaidMilli) << ",\n"
       << "  \"refunded_milli\": " << total(kRefundedMilli) << ",\n"
       << "  \"conserved\": true,\n"
       << "  \"reconciled\": true,\n"
       << "  \"adaptive\": " << (adaptive.adaptive ? "true" : "false") << ",\n"
       << "  \"eps\": " << adaptive.eps << ",\n"
       << "  " << bench::adaptive_json_fields(cell.outcome) << ",\n"
       << "  \"plane\": {\n"
       << "    \"schedules\": " << plane_cell.outcome.replicates_used << ",\n"
       << "    \"settlements_closed\": " << plane_total(kPlaneClosed) << ",\n"
       << "    \"settlements_abandoned\": " << plane_total(kPlaneAbandoned) << ",\n"
       << "    \"settlements_expired\": " << plane_total(kPlaneExpired) << ",\n"
       << "    \"settlements_prorata\": " << plane_total(kPlaneProrata) << ",\n"
       << "    \"aggregates_submitted\": " << plane_total(kPlaneAggregates) << ",\n"
       << "    \"aggregates_refused\": " << plane_total(kPlaneAggregatesRefused) << ",\n"
       << "    \"receipts_batched\": " << plane_total(kPlaneReceipts) << ",\n"
       << "    \"escrow_milli\": " << plane_total(kPlaneEscrowMilli) << ",\n"
       << "    \"paid_milli\": " << plane_total(kPlanePaidMilli) << ",\n"
       << "    \"refunded_milli\": " << plane_total(kPlaneRefundedMilli) << ",\n"
       << "    \"conserved_per_partition_and_globally\": true,\n"
       << "    " << bench::adaptive_json_fields(plane_cell.outcome) << "\n"
       << "  }\n"
       << "}\n";
  bench::write_bench_json("BENCH_chaos_settlement.json", json.str());
  return 0;
}
