// Microbenchmarks (google-benchmark) for the building blocks on the
// simulation hot path: RNG streams, the event queue, routing decisions
// (including the paper's O(log d) next-hop claim — ours is O(d) argmax,
// measured here to show it is nanoseconds at d = 5), probing updates,
// payment settlement, and parallel replication scaling. BM_EventQueueHold
// times the queue in a shard's steady state (pop one, schedule one). The
// decision rows run the one decision stack (memo arena); BM_EdgeQuality
// times one edge-quality evaluation.
#include <benchmark/benchmark.h>

#include <string>

#include "core/decision_scratch.hpp"
#include "core/edge_quality.hpp"
#include "core/incentive.hpp"
#include "core/routing.hpp"
#include "harness/replicate.hpp"
#include "harness/scenario.hpp"
#include "net/probing.hpp"
#include "payment/settlement.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace p2panon;

void BM_RngNextU64(benchmark::State& state) {
  sim::rng::Stream s(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.next_u64());
  }
}
BENCHMARK(BM_RngNextU64);

void BM_RngChildDerivation(benchmark::State& state) {
  sim::rng::Stream s(1);
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.child("bench", ++i));
  }
}
BENCHMARK(BM_RngChildDerivation);

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::rng::Stream s(2);
  for (auto _ : state) {
    sim::EventQueue q;
    for (std::size_t i = 0; i < n; ++i) {
      q.schedule(s.next_double() * 1000.0, [] {});
    }
    while (!q.empty()) benchmark::DoNotOptimize(q.pop().time);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueueScheduleAndPop)->Arg(64)->Arg(1024)->Arg(16384);

/// The hold model: a queue kept at n pending events, each iteration pops the
/// earliest, runs it, and schedules one more at now + Exp(1). Arg(131072) is
/// the regime of one engine shard at N = 1e5 (~75k pending events), where the
/// heap and the callbacks no longer fit in L2.
void BM_EventQueueHold(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::rng::Stream s(3);
  sim::EventQueue q;
  std::uint64_t fired = 0;
  for (std::size_t i = 0; i < n; ++i) {
    q.schedule(s.exponential(1.0), [&fired] { ++fired; });
  }
  for (auto _ : state) {
    auto ev = q.pop();
    ev.fn();
    q.schedule(ev.time + s.exponential(1.0), [&fired] { ++fired; });
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueHold)->Arg(1024)->Arg(131072);

/// Shared environment for routing-decision microbenches; `ctx` carries the
/// per-replicate DecisionResources (memo arena).
struct RoutingEnv {
  RoutingEnv()
      : root(7),
        overlay(make_cfg(), simulator, root.child("overlay")),
        probing(overlay, net::ProbingConfig{}, root.child("probing")),
        history(overlay.size()),
        quality(probing, history, core::QualityWeights{}),
        ctx{overlay.state(), overlay.links(), quality, core::Contract{}, 0, 5, 39, resources} {
    overlay.start();
    simulator.run_until(sim::hours(1.0));
    candidates = overlay.online_neighbors(0);
    if (candidates.empty()) candidates.push_back(1);
    // Stored history makes selectivity (and hence the lookahead memo's
    // canonicalisation) non-trivial. Steady state after an hour of simulated
    // operation has hundreds of recorded connections spread over many
    // pairs, so populate accordingly: a few paths for the benched pair
    // rooted at the deciding node, plus bulk history for other pairs
    // criss-crossing the overlay (these size every node's count index the
    // way a live replicate does).
    for (std::uint32_t k = 1; k <= 4; ++k) {
      const net::NodeId a = overlay.neighbors(0)[k % overlay.neighbors(0).size()];
      const net::NodeId b = overlay.neighbors(a)[k % overlay.neighbors(a).size()];
      history.record_path(0, {0, a, b, 39});
    }
    // 100 pairs x 10 connections mirrors the paper-default workload
    // (~50 stored entries per node).
    for (net::PairId p = 0; p < 100; ++p) {
      for (std::uint32_t k = 1; k <= 10; ++k) {
        const net::NodeId s = (p * 7 + k) % overlay.size();
        const net::NodeId a = overlay.neighbors(s)[(p + k) % overlay.neighbors(s).size()];
        const net::NodeId b = overlay.neighbors(a)[(p + 3 * k) % overlay.neighbors(a).size()];
        const net::NodeId r = (s + overlay.size() / 2) % overlay.size();
        if (a == s || b == s || b == a || r == s || r == a || r == b) continue;
        history.record_path(p, {s, a, b, r});
      }
    }
  }

  static net::OverlayConfig make_cfg() {
    net::OverlayConfig cfg;
    cfg.node_count = 40;
    cfg.degree = 5;
    // Sessions far longer than the warmup keep every node online: the
    // depth-3 decision then explores the full O(d^depth) tree the paper
    // describes, making the measured kernel deterministic instead of
    // depending on which neighbours a churn draw left alive.
    cfg.churn.session_median = sim::hours(1.0e4);
    cfg.churn.session_min = sim::hours(1.0e3);
    cfg.churn.session_max = sim::hours(1.0e6);
    return cfg;
  }

  sim::rng::Stream root;
  sim::Simulator simulator;
  net::Overlay overlay;
  net::ProbingEstimator probing;
  core::HistoryStore history;
  core::EdgeQualityEvaluator quality;
  core::DecisionResources resources;
  core::RoutingContext ctx;
  std::vector<net::NodeId> candidates;
};

RoutingEnv& routing_env() {
  static RoutingEnv env;
  return env;
}

void BM_RoutingDecisionModel1(benchmark::State& state) {
  RoutingEnv& env = routing_env();
  core::UtilityModelIRouting routing;
  auto stream = env.root.child("m1");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        routing.choose(env.ctx, 0, net::kInvalidNode, env.candidates, stream));
  }
}
BENCHMARK(BM_RoutingDecisionModel1);

void BM_RoutingDecisionModel2(benchmark::State& state) {
  RoutingEnv& env = routing_env();
  core::UtilityModelIIRouting routing(static_cast<std::uint32_t>(state.range(0)));
  auto stream = env.root.child("m2");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        routing.choose(env.ctx, 0, net::kInvalidNode, env.candidates, stream));
  }
}
BENCHMARK(BM_RoutingDecisionModel2)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

void BM_EdgeQuality(benchmark::State& state) {
  RoutingEnv& env = routing_env();
  const net::NodeId v = env.candidates.front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(env.quality.edge_quality(0, v, 39, 0, net::kInvalidNode, 5));
  }
}
BENCHMARK(BM_EdgeQuality);

/// Mixed hit/miss probe set mirroring what per-hop decisions ask of one
/// node's profile: same pair, varying predecessor/successor ids.
constexpr std::uint32_t kSelectivityProbes = 64;

/// Node 13's profile after it forwarded 200 paths {pred, 13, succ}.
const core::HistoryProfile& flat_profile() {
  constexpr net::NodeId kHolder = 13;  // above every predecessor and successor id
  static const core::HistoryStore store = [] {
    core::HistoryStore h(kHolder + 1);
    for (std::uint32_t i = 0; i < 200; ++i) h.record_path(i % 7, {i % 11, kHolder, (i * 3) % 13});
    return h;
  }();
  return store.at(kHolder);
}

void BM_SelectivityFlatMap(benchmark::State& state) {
  const core::HistoryProfile& profile = flat_profile();
  for (auto _ : state) {
    double sum = 0.0;
    for (std::uint32_t i = 0; i < kSelectivityProbes; ++i) {
      sum += profile.selectivity(i % 7, i % 11, i % 13, 5);
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kSelectivityProbes);
}
BENCHMARK(BM_SelectivityFlatMap);

void BM_SettlementRoundTrip(benchmark::State& state) {
  sim::rng::Stream root(9);
  for (auto _ : state) {
    payment::Bank bank(root.child("bank"));
    payment::SettlementEngine engine(bank);
    std::vector<payment::AccountId> accounts;
    for (net::NodeId id = 0; id < 6; ++id) {
      accounts.push_back(bank.open_account(id, payment::from_credits(1000.0), id + 1));
    }
    payment::Wallet wallet(bank, accounts[0], root.child("wallet"));
    const payment::Amount p_f = payment::from_credits(10.0);
    const payment::Amount p_r = payment::from_credits(20.0);
    auto coins = wallet.withdraw(3 * p_f + p_r);
    auto escrow = bank.open_escrow(*coins);
    std::vector<payment::PathRecord> records{{1, 0, 5, {1, 2, 3}}};
    const auto sid = engine.open(1, *escrow, {p_f, p_r}, records,
                                 bank.open_pseudonymous_account());
    for (net::NodeId f = 1; f <= 3; ++f) {
      const auto receipt = payment::make_receipt(bank.account_mac_key(accounts[f]), 1, 1, f,
                                                 f - 1, f + 1 <= 3 ? f + 1 : 5);
      engine.submit_claim(sid, accounts[f], receipt);
    }
    benchmark::DoNotOptimize(engine.close(sid).paid_out);
  }
}
BENCHMARK(BM_SettlementRoundTrip);

void BM_BlindWithdraw(benchmark::State& state) {
  sim::rng::Stream root(10);
  payment::Bank bank(root.child("bank"));
  const auto acct = bank.open_account(0, payment::from_credits(1.0e9), 1);
  payment::Wallet wallet(bank, acct, root.child("wallet"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(wallet.withdraw(payment::from_credits(75.0)));
  }
}
BENCHMARK(BM_BlindWithdraw);

void BM_FullScenarioSmall(benchmark::State& state) {
  harness::ScenarioConfig cfg = harness::paper_default_config(1);
  cfg.overlay.node_count = 20;
  cfg.pair_count = 10;
  cfg.connections_per_pair = 5;
  cfg.warmup = sim::minutes(30.0);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    cfg.seed = seed++;
    benchmark::DoNotOptimize(harness::ScenarioRunner(cfg).run().connections_completed);
  }
}
BENCHMARK(BM_FullScenarioSmall)->Unit(benchmark::kMillisecond);

void BM_ParallelReplicationScaling(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  harness::ScenarioConfig cfg = harness::paper_default_config(1);
  cfg.overlay.node_count = 20;
  cfg.pair_count = 8;
  cfg.connections_per_pair = 4;
  cfg.warmup = sim::minutes(30.0);
  parallel::ThreadPool pool(threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(harness::run_replicated(cfg, 8, &pool).replicates);
  }
  state.SetLabel(std::to_string(threads) + " threads");
}
BENCHMARK(BM_ParallelReplicationScaling)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
