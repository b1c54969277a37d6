#include "layers.hpp"

#include <algorithm>
#include <memory>
#include <span>
#include <string>

#include "core/decision_scratch.hpp"
#include "core/edge_quality.hpp"
#include "core/history.hpp"
#include "core/incentive.hpp"
#include "core/path.hpp"
#include "core/shard_quality.hpp"
#include "harness/scenario.hpp"
#include "net/overlay.hpp"
#include "net/probing.hpp"
#include "net/sharded_probing.hpp"
#include "net/soa.hpp"
#include "payment/bank.hpp"
#include "payment/money.hpp"
#include "payment/receipt.hpp"
#include "payment/settlement.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "transport/wire.hpp"
#include "transport/wire_codec.hpp"

namespace perfbench {

using namespace p2panon;

namespace {

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Keeps a computed value observable so the timed loop cannot be elided.
template <typename T>
void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

}  // namespace

Quantiles quantiles(std::vector<double> samples) {
  if (samples.empty()) return {};
  std::sort(samples.begin(), samples.end());
  const auto at = [&](double q) {
    const double pos = q * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    return samples[lo] + (samples[hi] - samples[lo]) * (pos - static_cast<double>(lo));
  };
  return {at(0.5), at(0.95)};
}

double time_sample_indices_ms(Tracer& tracer, int parent, std::uint64_t seed, std::size_t n,
                              std::size_t d) {
  sim::rng::Stream stream = sim::rng::Stream(seed).child("perfbench-neighbors");
  ScopedSpan span(tracer, "sim.sample_indices", parent);
  span.set_calls(n);
  const Clock::time_point t0 = Clock::now();
  std::size_t sum = 0;
  for (std::size_t id = 0; id < n; ++id) {
    const std::vector<std::size_t> picks = stream.sample_indices(n - 1, d);
    sum += picks.front();
  }
  keep(sum);
  return ms_between(t0, Clock::now());
}

double time_zipf_ms(Tracer& tracer, int parent, std::uint64_t seed, std::size_t n,
                    std::size_t draws) {
  sim::rng::Stream stream = sim::rng::Stream(seed).child("perfbench-zipf");
  ScopedSpan span(tracer, "sim.zipf", parent);
  span.set_calls(draws);
  const Clock::time_point t0 = Clock::now();
  std::size_t sum = 0;
  for (std::size_t i = 0; i < draws; ++i) sum += stream.zipf(n, 1.0);
  keep(sum);
  return ms_between(t0, Clock::now());
}

OverlayTiming time_overlay(Tracer& tracer, int parent, std::uint64_t seed, std::size_t n,
                           std::size_t d, sim::Time warmup, const fault::FaultConfig* faults) {
  net::OverlayConfig cfg = harness::paper_default_config(seed).overlay;
  cfg.node_count = n;
  cfg.degree = d;
  const sim::rng::Stream root(seed);
  sim::Simulator simulator;
  OverlayTiming t;

  const int build = tracer.begin("net.overlay_build", parent);
  Clock::time_point t0 = Clock::now();
  net::Overlay overlay(cfg, simulator, root.child("overlay"));
  net::ProbingEstimator probing(overlay, net::ProbingConfig{}, root.child("probing"));
  overlay.start();
  t.build_ms = ms_between(t0, Clock::now());
  tracer.end(build);

  const int run = tracer.begin("sim.warmup", parent);
  t0 = Clock::now();
  simulator.run_until(warmup);
  t.warmup_ms = ms_between(t0, Clock::now());
  tracer.end(run, simulator.events_executed());
  keep(probing.probes_performed());

  if (faults != nullptr) {
    const int start = tracer.begin("fault.start", parent);
    fault::FaultInjector injector(*faults, overlay, root.child("faults"));
    injector.start();
    tracer.end(start);
    sim::rng::Stream draw = root.child("perfbench-messages");
    std::vector<std::pair<net::NodeId, net::NodeId>> links(4096);
    for (auto& [from, to] : links) {
      from = static_cast<net::NodeId>(draw.below(n));
      to = overlay.neighbors(from)[draw.below(d)];
    }
    constexpr std::size_t kRounds = 64;
    ScopedSpan span(tracer, "fault.message_decision", parent);
    span.set_calls(kRounds * links.size());
    std::size_t dropped = 0;
    double delay = 0.0;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t round = 0; round < kRounds; ++round) {
      for (const auto& [from, to] : links) {
        if (injector.drop_message(from, to)) {
          ++dropped;
        } else {
          delay += injector.extra_delay(from, to);
        }
      }
    }
    t.fault_decision_ns =
        1e6 * ms_between(t0, Clock::now()) / static_cast<double>(kRounds * links.size());
    keep(dropped);
    keep(delay);
  }
  return t;
}

Quantiles time_path_build_us(Tracer& tracer, int parent, std::uint64_t seed,
                             core::StrategyKind strategy_kind, double malicious_fraction,
                             std::size_t pairs, std::uint32_t connections) {
  // The synchronous scenario's model stack, built the way the paper
  // scenario builds it, with connections spread over simulated time so
  // each path is formed against live churn and probing state.
  harness::ScenarioConfig cfg = harness::paper_default_config(seed);
  cfg.overlay.malicious_fraction = malicious_fraction;
  const sim::rng::Stream root = sim::rng::Stream(seed).child("perfbench-paths");
  sim::Simulator simulator;
  net::Overlay overlay(cfg.overlay, simulator, root.child("overlay"));
  net::ProbingEstimator probing(overlay, cfg.probing, root.child("probing"));
  core::HistoryStore history(overlay.size());
  core::EdgeQualityEvaluator quality(probing, history, cfg.weights);
  core::DecisionResources resources;
  core::PathBuilder builder(overlay, quality, cfg.path_builder, &resources);
  core::PayoffLedger ledger(overlay.size());
  const auto strategy = core::make_strategy(strategy_kind, cfg.lookahead_depth);
  core::StrategyAssignment strategies(overlay, *strategy);

  struct Pair {
    std::unique_ptr<core::ConnectionSetSession> session;
    sim::rng::Stream stream;
  };
  std::vector<Pair> plan;
  sim::rng::Stream pick = root.child("pairs");
  for (std::size_t p = 0; p < pairs; ++p) {
    const auto initiator = static_cast<net::NodeId>(pick.below(overlay.size()));
    net::NodeId responder = initiator;
    while (responder == initiator) responder = static_cast<net::NodeId>(pick.below(overlay.size()));
    core::Contract contract;
    contract.forwarding_benefit = pick.uniform(cfg.p_f_lo, cfg.p_f_hi);
    contract.tau = cfg.tau;
    plan.push_back(Pair{std::make_unique<core::ConnectionSetSession>(
                            static_cast<net::PairId>(p), initiator, responder, contract),
                        root.child("pair-run", p)});
  }

  std::vector<double> samples_us;
  samples_us.reserve(pairs * connections);

  struct Context {
    Tracer& tracer;
    int span;
    std::vector<Pair>& plan;
    net::Overlay& overlay;
    core::PathBuilder& builder;
    core::HistoryStore& history;
    core::StrategyAssignment& strategies;
    core::PayoffLedger& ledger;
    std::vector<double>& samples_us;
  };
  Context ctx{tracer, -1, plan, overlay, builder, history, strategies, ledger, samples_us};

  overlay.start();
  sim::rng::Stream schedule = root.child("schedule");
  sim::Time last = cfg.warmup;
  for (std::size_t p = 0; p < pairs; ++p) {
    sim::Time at = cfg.warmup + schedule.uniform(0.0, cfg.pair_start_window);
    for (std::uint32_t j = 0; j < connections; ++j) {
      simulator.schedule_at(at, [c = &ctx, p] {
        Pair& pair = c->plan[p];
        c->overlay.force_online(pair.session->initiator());
        c->overlay.force_online(pair.session->responder());
        const Clock::time_point t0 = Clock::now();
        const core::BuiltPath& path = pair.session->run_connection(
            c->builder, c->history, c->strategies, c->ledger, c->overlay, pair.stream);
        const Clock::time_point t1 = Clock::now();
        keep(path.nodes.size());
        c->tracer.record("core.run_connection", c->span, t0, t1);
        c->samples_us.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
      });
      last = std::max(last, at);
      at += schedule.exponential(1.0 / cfg.connection_interval_mean);
    }
  }
  // The engine drives the connections: run_connection spans nest inside
  // the run_until span, whose self time is churn, probing and the queue.
  const bool model1 = strategy_kind == core::StrategyKind::kUtilityModelI;
  ctx.span = tracer.begin(model1 ? "sim.run_until.model1" : "sim.run_until.model2", parent);
  simulator.run_until(last + sim::minutes(1.0));
  tracer.end(ctx.span, simulator.events_executed());
  return quantiles(std::move(samples_us));
}

PaymentTiming time_payment(Tracer& tracer, int parent, std::uint64_t seed, std::size_t n,
                           std::size_t pairs, std::uint32_t connections, std::size_t forwarders,
                           Checks& checks) {
  PaymentTiming t;
  const sim::rng::Stream root = sim::rng::Stream(seed).child("perfbench-payment");
  payment::Bank bank(root.child("bank"));
  payment::SettlementEngine engine(bank);
  const payment::Amount initial = payment::from_credits(1.0e9);

  {
    ScopedSpan span(tracer, "payment.open_account", parent);
    span.set_calls(n);
    sim::rng::Stream keys = root.child("mac-keys");
    const Clock::time_point t0 = Clock::now();
    for (std::size_t id = 0; id < n; ++id) {
      (void)bank.open_account(static_cast<net::NodeId>(id), initial, keys.child("key", id).next_u64());
    }
    t.account_open_ms = ms_between(t0, Clock::now());
  }
  const payment::Amount money_before = bank.total_money() + bank.outstanding_coin_value();

  // Inputs: per pair, `connections` paths of `forwarders` distinct
  // forwarders between a random initiator and responder, and the MAC'd
  // receipt every forwarding instance holds.
  struct PairInput {
    net::NodeId initiator = 0;
    std::vector<payment::PathRecord> records;
    std::vector<std::pair<payment::AccountId, payment::ForwardReceipt>> claims;
    payment::Amount p_f = 0;
    payment::Amount p_r = 0;
  };
  sim::rng::Stream draw = root.child("paths");
  std::vector<PairInput> inputs(pairs);
  const std::size_t path_forwarders = std::min(forwarders, n > 2 ? n - 2 : 0);
  for (std::size_t p = 0; p < pairs; ++p) {
    PairInput& in = inputs[p];
    in.initiator = static_cast<net::NodeId>(draw.below(n));
    net::NodeId responder = in.initiator;
    while (responder == in.initiator) responder = static_cast<net::NodeId>(draw.below(n));
    const double p_f = draw.uniform(50.0, 100.0);
    in.p_f = payment::from_credits(p_f);
    in.p_r = payment::from_credits(2.0 * p_f);
    for (std::uint32_t j = 1; j <= connections; ++j) {
      payment::PathRecord rec;
      rec.conn_index = j;
      rec.entry = in.initiator;
      rec.exit = responder;
      while (rec.forwarders.size() < path_forwarders) {
        const auto f = static_cast<net::NodeId>(draw.below(n));
        if (f == in.initiator || f == responder ||
            std::find(rec.forwarders.begin(), rec.forwarders.end(), f) != rec.forwarders.end()) {
          continue;
        }
        rec.forwarders.push_back(f);
      }
      in.records.push_back(std::move(rec));
    }
  }

  {
    // make_receipt over every instance, repeated until the batch is long
    // enough to time at nanosecond scale.
    std::vector<payment::ForwardReceipt> receipts;
    for (std::size_t p = 0; p < pairs; ++p) {
      for (const payment::PathRecord& rec : inputs[p].records) {
        for (std::size_t i = 0; i < rec.forwarders.size(); ++i) {
          const net::NodeId fwd = rec.forwarders[i];
          const net::NodeId pred = i == 0 ? rec.entry : rec.forwarders[i - 1];
          const net::NodeId succ = i + 1 == rec.forwarders.size() ? rec.exit : rec.forwarders[i + 1];
          const payment::AccountId acct = bank.account_of(fwd);
          const payment::ForwardReceipt r = payment::make_receipt(
              bank.account_mac_key(acct), static_cast<net::PairId>(p), rec.conn_index, fwd, pred,
              succ);
          inputs[p].claims.emplace_back(acct, r);
          receipts.push_back(r);
        }
      }
    }
    if (!receipts.empty()) {
      const std::size_t rounds = std::max<std::size_t>(1, 200000 / receipts.size());
      ScopedSpan span(tracer, "payment.make_receipt", parent);
      span.set_calls(rounds * receipts.size());
      const Clock::time_point t0 = Clock::now();
      std::uint64_t acc = 0;
      for (std::size_t round = 0; round < rounds; ++round) {
        for (const payment::ForwardReceipt& r : receipts) {
          acc ^= payment::make_receipt(r.mac + round, r.pair, r.conn_index, r.forwarder,
                                       r.predecessor, r.successor)
                     .mac;
        }
      }
      keep(acc);
      t.mac_ns = 1e6 * ms_between(t0, Clock::now()) / static_cast<double>(rounds * receipts.size());
    }
  }

  std::vector<double> settle_us;
  std::vector<double> withdraw_us;
  std::size_t claims_total = 0;
  std::size_t claims_accepted = 0;
  bool reports_balance = true;
  for (std::size_t p = 0; p < pairs; ++p) {
    PairInput& in = inputs[p];
    std::size_t instances = 0;
    for (const payment::PathRecord& rec : in.records) instances += rec.forwarders.size();
    const payment::Amount committed = static_cast<payment::Amount>(instances) * in.p_f + in.p_r;

    const int settle = tracer.begin("payment.settle", parent);
    const Clock::time_point t0 = Clock::now();
    payment::Wallet wallet(bank, bank.account_of(in.initiator), root.child("wallet", p));
    const int w = tracer.begin("payment.withdraw", settle);
    std::optional<std::vector<payment::Coin>> coins = wallet.withdraw(committed);
    tracer.end(w);
    withdraw_us.push_back(1e3 * ms_between(t0, Clock::now()));
    checks.expect(coins.has_value(), "payment: an initiator could not fund its escrow");
    if (!coins) {
      tracer.end(settle);
      continue;
    }
    const int e = tracer.begin("payment.open_escrow", settle);
    const std::optional<payment::EscrowId> escrow = bank.open_escrow(*coins);
    const payment::AccountId refund = bank.open_pseudonymous_account();
    tracer.end(e);
    checks.expect(escrow.has_value(), "payment: escrow funding was rejected");
    if (!escrow) {
      tracer.end(settle);
      continue;
    }
    const int o = tracer.begin("payment.settlement_open", settle);
    const payment::SettlementId sid = engine.open(static_cast<net::PairId>(p), *escrow,
                                                  payment::SettlementTerms{in.p_f, in.p_r},
                                                  in.records, refund);
    tracer.end(o);
    const int c = tracer.begin("payment.submit_claim", settle);
    for (const auto& [acct, receipt] : in.claims) {
      claims_accepted += engine.submit_claim(sid, acct, receipt) == payment::ClaimResult::kAccepted;
    }
    tracer.end(c, in.claims.size());
    claims_total += in.claims.size();
    const int cl = tracer.begin("payment.close", settle);
    const payment::SettlementReport& report = engine.close(sid);
    tracer.end(cl);
    settle_us.push_back(1e3 * ms_between(t0, Clock::now()));
    tracer.end(settle);
    reports_balance = reports_balance && report.escrow_in == report.paid_out + report.refunded &&
                      report.escrow_in == committed;
  }
  checks.expect(claims_accepted == claims_total, "payment: a valid forwarding claim was rejected");
  checks.expect(reports_balance, "payment: a settlement's payouts + refund != its escrow");
  checks.expect(bank.total_money() + bank.outstanding_coin_value() == money_before,
                "payment: bank money + coins changed across settlements");
  t.settle_us = quantiles(std::move(settle_us));
  t.withdraw_us = quantiles(std::move(withdraw_us)).p50;
  return t;
}

CodecTiming time_codec(Tracer& tracer, int parent, std::uint64_t seed, const FrameMix& mix,
                       Checks& checks) {
  CodecTiming t;
  const double total = mix.legs + mix.acks + mix.data + mix.claims + mix.closes;
  if (total <= 0.0) return t;
  namespace wire = transport::wire;
  sim::rng::Stream draw = sim::rng::Stream(seed).child("perfbench-frames");
  constexpr std::size_t kMessages = 4096;
  std::vector<wire::WireMessage> msgs;
  msgs.reserve(kMessages);
  for (std::size_t i = 0; i < kMessages; ++i) {
    double u = draw.uniform(0.0, total);
    const auto id = [&] { return static_cast<std::uint32_t>(draw.below(1u << 20)); };
    if ((u -= mix.legs) < 0.0) {
      msgs.emplace_back(wire::LegMsg{id(), id() % 20, id() % 16, draw.next_u64(),
                                     static_cast<std::uint8_t>(id() % 3), id(), id(), id() % 8,
                                     id() % 8});
    } else if ((u -= mix.acks) < 0.0) {
      msgs.emplace_back(wire::AckMsg{id(), id() % 20, draw.next_u64()});
    } else if ((u -= mix.data) < 0.0) {
      msgs.emplace_back(wire::DataMsg{id(), id() % 20, id() % 8, draw.next_u64(), id() % 8,
                                      static_cast<std::uint8_t>(id() % 2)});
    } else if ((u -= mix.claims) < 0.0) {
      msgs.emplace_back(wire::ClaimMsg{
          id(), id(), payment::make_receipt(draw.next_u64(), id(), id() % 20, id(), id(), id())});
    } else {
      msgs.emplace_back(wire::CloseMsg{id()});
    }
  }

  constexpr std::size_t kRounds = 64;
  std::vector<std::byte> buffer;
  std::size_t bytes = 0;
  {
    ScopedSpan span(tracer, "transport.encode", parent);
    span.set_calls(kRounds * msgs.size());
    const Clock::time_point t0 = Clock::now();
    for (std::size_t round = 0; round < kRounds; ++round) {
      buffer.clear();
      for (const wire::WireMessage& m : msgs) bytes += transport::encode(m, buffer);
    }
    t.encode_ns = 1e6 * ms_between(t0, Clock::now()) / static_cast<double>(kRounds * msgs.size());
  }
  t.bytes_per_frame = static_cast<double>(bytes) / static_cast<double>(kRounds * msgs.size());

  std::size_t mismatches = 0;
  {
    ScopedSpan span(tracer, "transport.decode", parent);
    span.set_calls(kRounds * msgs.size());
    const std::span<const std::byte> all(buffer);
    wire::WireMessage out;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t round = 0; round < kRounds; ++round) {
      std::size_t offset = 0;
      for (std::size_t i = 0; i < msgs.size(); ++i) {
        std::size_t consumed = 0;
        const transport::DecodeResult r = transport::decode(all.subspan(offset), out, consumed);
        offset += consumed;
        if (round == 0 && (r != transport::DecodeResult::kOk || !(out == msgs[i]))) ++mismatches;
      }
    }
    t.decode_ns = 1e6 * ms_between(t0, Clock::now()) / static_cast<double>(kRounds * msgs.size());
  }
  checks.expect(mismatches == 0, "transport: a frame did not decode to the message encoded");
  return t;
}

ShardedDecisionTiming time_sharded_decisions(Tracer& tracer, int parent, std::uint64_t seed,
                                             std::size_t n, std::size_t d, std::uint32_t k) {
  ShardedDecisionTiming t;
  sim::rng::Stream draw = sim::rng::Stream(seed).child("perfbench-sharded");
  net::NodeStateSoA state;
  state.resize(n, d);
  for (net::NodeId id = 0; id < n; ++id) {
    auto row = state.neighbors_of(id);
    for (std::size_t slot = 0; slot < d; ++slot) {
      net::NodeId u = id;
      while (u == id || std::find(row.begin(), row.begin() + static_cast<std::ptrdiff_t>(slot), u) !=
                            row.begin() + static_cast<std::ptrdiff_t>(slot)) {
        u = static_cast<net::NodeId>(draw.below(n));
      }
      row[slot] = u;
    }
    state.online[id] = draw.bernoulli(0.8) ? 1 : 0;
  }
  const net::ShardPartition partition(n, k);
  net::ShardedProbing probing(state, partition, sim::minutes(5.0), draw.child("probing"));
  const std::vector<std::uint8_t> published = state.online;
  const std::span<const std::uint8_t> view(published);

  constexpr std::size_t kSweeps = 4;
  {
    ScopedSpan span(tracer, "net.probe", parent);
    span.set_calls(kSweeps * n);
    const Clock::time_point t0 = Clock::now();
    for (std::size_t sweep = 0; sweep < kSweeps; ++sweep) {
      for (net::NodeId id = 0; id < n; ++id) probing.probe(id, view);
    }
    t.probe_ns = 1e6 * ms_between(t0, Clock::now()) / static_cast<double>(kSweeps * n);
  }

  core::ShardedEdgeQuality quality(state, partition, probing, core::QualityWeights{});
  for (net::NodeId id = 0; id < n; ++id) {
    const std::size_t slot = draw.below(d);
    quality.record_attempt(id, slot);
    if (draw.bernoulli(0.9)) quality.record_success(id, slot);
  }
  {
    ScopedSpan span(tracer, "core.pick_best", parent);
    span.set_calls(kSweeps * n);
    std::size_t sum = 0;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t sweep = 0; sweep < kSweeps; ++sweep) {
      for (net::NodeId id = 0; id < n; ++id) sum += quality.pick_best(id, view);
    }
    t.pick_best_ns = 1e6 * ms_between(t0, Clock::now()) / static_cast<double>(kSweeps * n);
    keep(sum);
  }
  return t;
}

}  // namespace perfbench
