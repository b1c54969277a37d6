#include "workloads.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "harness/replicate.hpp"
#include "harness/scenario.hpp"
#include "harness/sharded_scenario.hpp"
#include "layers.hpp"
#include "metrics/stats.hpp"

namespace perfbench {

using namespace p2panon;

void Fingerprint::add(std::uint64_t x) noexcept {
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (i * 8)) & 0xFF;
    h *= 1099511628211ULL;
  }
}

void Fingerprint::add_double(double d) noexcept { add(std::bit_cast<std::uint64_t>(d)); }

namespace {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void add_acc(Fingerprint& f, const metrics::Accumulator& a) {
  const metrics::Accumulator::Raw r = a.raw();
  f.add(r.n);
  f.add(r.mean_bits);
  f.add(r.m2_bits);
  f.add(r.min_bits);
  f.add(r.max_bits);
}

void add_samples(Fingerprint& f, const std::vector<double>& v) {
  f.add(v.size());
  for (const double d : v) f.add_double(d);
}

std::uint64_t fingerprint_of(const harness::ReplicatedResult& r) {
  Fingerprint f;
  f.add(r.replicates);
  for (const metrics::Accumulator* a :
       {&r.good_payoff, &r.member_payoff, &r.forwarder_set_size, &r.avg_path_length,
        &r.path_quality, &r.initiator_utility, &r.initiator_spend, &r.routing_efficiency,
        &r.connection_latency, &r.delivery_ratio, &r.setup_time, &r.time_to_detect}) {
    add_acc(f, *a);
  }
  add_samples(f, r.pooled_good_payoffs);
  add_samples(f, r.pooled_member_payoffs);
  for (const metrics::Accumulator& a : r.new_edge_fraction_by_conn) add_acc(f, a);
  for (const std::uint64_t v :
       {r.total_reformations, r.total_churn_events, r.total_connections_completed,
        r.total_connections_failed, r.total_setup_attempts, r.total_ack_timeouts,
        r.total_crashes, r.total_messages_dropped, r.total_keepalives_sent,
        r.total_keepalives_delivered, r.total_engine_events_scheduled,
        r.total_engine_events_cancelled, r.total_engine_events_fired,
        r.total_engine_callback_heap_allocs, r.total_engine_cross_shard_messages,
        r.total_engine_window_barriers, r.total_settlements_closed,
        r.total_settlements_abandoned, r.total_settlements_expired,
        r.total_settlements_prorata, r.total_claims_submitted, r.total_claims_lost,
        r.total_claims_rejected, r.total_claims_after_terminal,
        r.total_transport_frames_sent, r.total_transport_frames_delivered,
        r.total_transport_frames_dropped, r.total_transport_frames_rejected}) {
    f.add(v);
  }
  for (const std::int64_t v : {r.total_settlement_escrow_milli, r.total_settlement_paid_milli,
                               r.total_settlement_refunded_milli}) {
    f.add(static_cast<std::uint64_t>(v));
  }
  f.add(r.all_payments_conserved ? 1 : 0);
  f.add(r.all_settlements_reconciled ? 1 : 0);
  return f.h;
}

std::uint64_t fingerprint_of(const harness::ScenarioResult& r) {
  Fingerprint f;
  for (const metrics::Accumulator* a :
       {&r.good_payoff, &r.member_payoff, &r.forwarder_set_size, &r.avg_path_length,
        &r.path_quality, &r.connection_latency, &r.initiator_utility, &r.initiator_spend,
        &r.setup_time, &r.time_to_detect}) {
    add_acc(f, *a);
  }
  add_samples(f, r.good_payoff_samples);
  add_samples(f, r.member_payoff_samples);
  for (const metrics::Accumulator& a : r.new_edge_fraction_by_conn) add_acc(f, a);
  f.add_double(r.routing_efficiency);
  f.add_double(r.total_paid_credits);
  f.add_double(r.sim_end_time);
  for (const std::uint64_t v :
       {r.churn_events, r.reformations, r.probes, r.connections_completed,
        r.connections_failed, r.setup_attempts, r.setup_ack_timeouts, r.crashes,
        r.messages_dropped, r.probe_false_negatives, r.keepalives_sent,
        r.keepalives_delivered, r.failures_detected, r.engine_events_scheduled,
        r.engine_events_cancelled, r.engine_events_fired, r.engine_callback_heap_allocs,
        r.engine_cross_shard_messages, r.engine_window_barriers, r.settlements_closed,
        r.settlements_abandoned, r.settlements_expired, r.settlements_prorata,
        r.claims_submitted, r.claims_lost, r.claims_rejected, r.claims_after_terminal,
        r.transport_frames_sent, r.transport_frames_delivered, r.transport_frames_dropped,
        r.transport_frames_rejected, r.sharded_digest}) {
    f.add(v);
  }
  for (const std::int64_t v :
       {r.settlement_escrow_milli, r.settlement_paid_milli, r.settlement_refunded_milli}) {
    f.add(static_cast<std::uint64_t>(v));
  }
  f.add(r.payment_conserved ? 1 : 0);
  f.add(r.settlement_reconciled ? 1 : 0);
  return f.h;
}

std::uint64_t fingerprint_of(const harness::ShardedScenarioResult& r) {
  Fingerprint f;
  f.add(r.digest);
  for (const std::uint64_t v :
       {r.connections_launched, r.connections_acked, r.ack_timeouts, r.no_candidate,
        r.hops_forwarded, r.churn_events, r.departures, r.claims_settled, r.probes,
        r.cross_shard_messages, r.window_barriers, r.settlement_batches, r.engine.scheduled,
        r.engine.cancelled, r.engine.fired, r.engine.callback_heap_allocs}) {
    f.add(v);
  }
  return f.h;
}

/// Settlement invariants shared by the scenario workloads: money is
/// conserved, the bank journal reconciles with the settlement reports, and
/// every escrowed milli-credit was either paid out or refunded.
template <typename R>
void check_money(Checks& checks, const std::string& where, bool conserved, bool reconciled,
                 const R& escrow, const R& paid, const R& refunded) {
  checks.expect(conserved, where + ": bank money + coins changed (payment conservation)");
  checks.expect(reconciled, where + ": bank journal does not reconcile with settlement reports");
  checks.expect(escrow == paid + refunded, where + ": escrow != paid out + refunded");
}

// --- paper_sweep -----------------------------------------------------------

class PaperSweep final : public Workload {
 public:
  PaperSweep(std::uint64_t seed, Scale scale) : seed_(seed) {
    const bool full = scale == Scale::kFull;
    reps_per_cell_ = full ? 16 : 2;
    const std::vector<double> fractions =
        full ? std::vector<double>{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
             : std::vector<double>{0.1, 0.5, 0.9};
    std::uint64_t cell = 0;
    for (const core::StrategyKind strategy :
         {core::StrategyKind::kUtilityModelI, core::StrategyKind::kUtilityModelII}) {
      for (const double f : fractions) {
        // Cell seeds leave room for the replicate offsets run_replicated adds.
        harness::ScenarioConfig cfg = harness::paper_default_config(seed * 1000000 + cell * 1000);
        cfg.overlay.malicious_fraction = f;
        cfg.good_strategy = strategy;
        cfg.lookahead_depth = 3;
        cfg.tau = 2.0;
        if (!full) {
          cfg.pair_count = 20;
          cfg.connections_per_pair = 5;
        }
        cells_.push_back(cfg);
        ++cell;
      }
    }
  }

  const char* name() const noexcept override { return "paper_sweep"; }
  std::size_t replicates() const noexcept override { return cells_.size() * reps_per_cell_; }
  bool uses_pool() const noexcept override { return true; }

  void setup_pass(parallel::ThreadPool* pool) override {
    for (harness::ScenarioConfig cfg : cells_) {
      cfg.connections_per_pair = 0;
      cfg.warmup = 0.0;
      (void)harness::run_replicated(cfg, reps_per_cell_, pool);
    }
  }

  std::uint64_t pass(parallel::ThreadPool* pool) override {
    results_.clear();
    Fingerprint f;
    for (const harness::ScenarioConfig& cfg : cells_) {
      results_.push_back(harness::run_replicated(cfg, reps_per_cell_, pool));
      f.add(fingerprint_of(results_.back()));
    }
    return f.h;
  }

  void check(Checks& checks) const override {
    for (std::size_t c = 0; c < results_.size(); ++c) {
      const harness::ReplicatedResult& r = results_[c];
      const std::string where = "paper_sweep cell " + std::to_string(c);
      check_money(checks, where, r.all_payments_conserved, r.all_settlements_reconciled,
                  r.total_settlement_escrow_milli, r.total_settlement_paid_milli,
                  r.total_settlement_refunded_milli);
      checks.expect(r.total_engine_callback_heap_allocs == 0,
                    where + ": event callbacks fell back to the heap");
      checks.expect(r.total_settlements_closed == reps_per_cell_ * cells_[c].pair_count,
                    where + ": not every pair's settlement closed");
      checks.expect(r.total_connections_completed ==
                        reps_per_cell_ * cells_[c].pair_count * cells_[c].connections_per_pair,
                    where + ": not every connection completed");
    }
  }

  void check_pool_invariance(Checks& checks, parallel::ThreadPool* /*pool*/) override {
    // Against the last pass's results, for the sweep's first and last cells
    // (one per strategy): the whole sweep on one thread would cost four
    // passes.
    parallel::ThreadPool single(1);
    for (const std::size_t c : {std::size_t{0}, cells_.size() - 1}) {
      checks.expect(fingerprint_of(harness::run_replicated(cells_[c], reps_per_cell_, &single)) ==
                        fingerprint_of(results_[c]),
                    "paper_sweep cell " + std::to_string(c) +
                        ": result differs between a pool of 1 thread and the measured pool");
    }
  }

  void counts(Metrics& out) const override {
    harness::ReplicatedResult t;
    double set_size = 0.0;
    double path_len = 0.0;
    for (const harness::ReplicatedResult& r : results_) {
      t.total_engine_events_fired += r.total_engine_events_fired;
      t.total_engine_events_scheduled += r.total_engine_events_scheduled;
      t.total_engine_events_cancelled += r.total_engine_events_cancelled;
      t.total_engine_callback_heap_allocs += r.total_engine_callback_heap_allocs;
      t.total_engine_cross_shard_messages += r.total_engine_cross_shard_messages;
      t.total_engine_window_barriers += r.total_engine_window_barriers;
      t.total_churn_events += r.total_churn_events;
      t.total_connections_completed += r.total_connections_completed;
      t.total_reformations += r.total_reformations;
      t.total_settlements_closed += r.total_settlements_closed;
      t.total_settlements_abandoned += r.total_settlements_abandoned;
      t.total_settlements_expired += r.total_settlements_expired;
      t.total_claims_submitted += r.total_claims_submitted;
      t.total_claims_lost += r.total_claims_lost;
      t.total_claims_rejected += r.total_claims_rejected;
      set_size += r.forwarder_set_size.mean();
      path_len += r.avg_path_length.mean();
    }
    const auto n = static_cast<double>(std::max<std::size_t>(results_.size(), 1));
    out.emplace_back("conn_fail_share", 0.0);  // the synchronous path cannot fail a setup
    out.emplace_back("sim.events_fired", static_cast<double>(t.total_engine_events_fired));
    out.emplace_back("sim.events_scheduled", static_cast<double>(t.total_engine_events_scheduled));
    out.emplace_back("sim.events_cancelled", static_cast<double>(t.total_engine_events_cancelled));
    out.emplace_back("sim.cancel_ratio", ratio(static_cast<double>(t.total_engine_events_cancelled),
                                               static_cast<double>(t.total_engine_events_scheduled)));
    out.emplace_back("sim.callback_heap_allocs",
                     static_cast<double>(t.total_engine_callback_heap_allocs));
    out.emplace_back("sim.cross_shard_messages",
                     static_cast<double>(t.total_engine_cross_shard_messages));
    out.emplace_back("sim.window_barriers", static_cast<double>(t.total_engine_window_barriers));
    out.emplace_back("net.churn_events", static_cast<double>(t.total_churn_events));
    out.emplace_back("core.paths_built",
                     static_cast<double>(t.total_connections_completed + t.total_reformations));
    out.emplace_back("core.setup_success_ratio", 1.0);  // every synchronous setup succeeds
    out.emplace_back("core.reformations", static_cast<double>(t.total_reformations));
    out.emplace_back("core.forwarder_set_size", set_size / n);
    out.emplace_back("core.path_length", path_len / n);
    out.emplace_back("payment.settlements_closed", static_cast<double>(t.total_settlements_closed));
    out.emplace_back("payment.settlements_abandoned",
                     static_cast<double>(t.total_settlements_abandoned));
    out.emplace_back("payment.settlements_expired",
                     static_cast<double>(t.total_settlements_expired));
    out.emplace_back("payment.claims_submitted", static_cast<double>(t.total_claims_submitted));
    out.emplace_back("payment.claims_lost", static_cast<double>(t.total_claims_lost));
    out.emplace_back("payment.claims_rejected", static_cast<double>(t.total_claims_rejected));
    for (const char* zero :
         {"transport.frames_sent", "transport.frames_delivered", "transport.frames_dropped",
          "transport.frames_rejected", "transport.frames_per_connection",
          "fault.messages_dropped", "fault.crashes", "fault.ack_timeouts"}) {
      out.emplace_back(zero, 0.0);  // the fault-free sweep sends no frames
    }
  }

  void trace_layers(Tracer& tracer, int parent, parallel::ThreadPool& pool, double wall_s,
                    double setup_s, Metrics& out, Checks& checks) override {
    // The sweep again, replicate by replicate on the same pool, the way
    // run_replicated schedules it (one task per replicate, cell by cell),
    // so each task's queue wait and run time become spans.
    struct Task {
      Clock::time_point submitted;
      Clock::time_point started;
      Clock::time_point finished;
      harness::ScenarioResult result;
    };
    std::vector<Task> tasks(replicates());
    const int sweep = tracer.begin("harness.sweep", parent);
    const Clock::time_point sweep_start = Clock::now();
    for (std::size_t c = 0; c < cells_.size(); ++c) {
      for (std::size_t r = 0; r < reps_per_cell_; ++r) {
        Task& task = tasks[c * reps_per_cell_ + r];
        harness::ScenarioConfig cfg = cells_[c];
        cfg.seed += r;
        task.submitted = Clock::now();
        pool.submit([&task, cfg] {
          task.started = Clock::now();
          task.result = harness::ScenarioRunner(cfg).run();
          task.finished = Clock::now();
        });
      }
      pool.wait_idle();
    }
    const Clock::time_point sweep_end = Clock::now();
    tracer.end(sweep, tasks.size());

    std::vector<double> waits_ms;
    std::vector<double> run_ms;
    double busy_s = 0.0;
    std::uint64_t probes = 0;
    std::uint64_t fired = 0;
    for (const Task& t : tasks) {
      tracer.record("parallel.task_wait", sweep, t.submitted, t.started);
      tracer.record("harness.replicate", sweep, t.started, t.finished);
      waits_ms.push_back(1e3 * seconds_between(t.submitted, t.started));
      run_ms.push_back(1e3 * seconds_between(t.started, t.finished));
      busy_s += seconds_between(t.started, t.finished);
      probes += t.result.probes;
      fired += t.result.engine_events_fired;
    }
    std::uint64_t untraced_fired = 0;
    for (const harness::ReplicatedResult& r : results_) untraced_fired += r.total_engine_events_fired;
    checks.expect(fired == untraced_fired,
                  "paper_sweep: traced replicates fired other events than the untraced sweep");

    const Quantiles replicate_q = quantiles(run_ms);
    out.emplace_back("harness.replicate_ms.p50", replicate_q.p50);
    out.emplace_back("harness.replicate_ms.p95", replicate_q.p95);
    out.emplace_back("parallel.busy_share",
                     ratio(busy_s, static_cast<double>(pool.thread_count()) *
                                       seconds_between(sweep_start, sweep_end)));
    out.emplace_back("parallel.task_wait_ms.p50", quantiles(waits_ms).p50);
    out.emplace_back("parallel.shard_speedup", 0.0);  // no sharded engine in this workload
    out.emplace_back("net.probes", static_cast<double>(probes));
    out.emplace_back("sim.run_ns_per_event",
                     ratio(1e9 * (wall_s - setup_s), static_cast<double>(untraced_fired)));

    // Decision stack at the sweep's shape, once per strategy, at the grid's
    // middle adversary fraction.
    const harness::ScenarioConfig& shape = cells_.front();
    const Quantiles m1 = time_path_build_us(tracer, parent, seed_, core::StrategyKind::kUtilityModelI,
                                            0.5, shape.pair_count, shape.connections_per_pair);
    const Quantiles m2 = time_path_build_us(tracer, parent, seed_, core::StrategyKind::kUtilityModelII,
                                            0.5, shape.pair_count, shape.connections_per_pair);
    out.emplace_back("core.path_build_us.model1.p50", m1.p50);
    out.emplace_back("core.path_build_us.model1.p95", m1.p95);
    out.emplace_back("core.path_build_us.model2.p50", m2.p50);
    out.emplace_back("core.path_build_us.model2.p95", m2.p95);
    out.emplace_back("core.pick_best_ns", 0.0);  // the sharded decision path is not used
    out.emplace_back("net.probe_ns", 0.0);

    const std::size_t n = shape.overlay.node_count;
    const OverlayTiming ov = time_overlay(tracer, parent, seed_, n, shape.overlay.degree,
                                          shape.warmup);
    out.emplace_back("net.overlay_build_ms", ov.build_ms);
    out.emplace_back("sim.warmup_ms", ov.warmup_ms);
    out.emplace_back("fault.decision_ns", 0.0);  // fault-free
    out.emplace_back("sim.sample_indices_ms",
                     time_sample_indices_ms(tracer, parent, seed_, n, shape.overlay.degree));
    out.emplace_back("sim.zipf_pick_ms", 0.0);  // responders are uniform

    double path_len = 0.0;
    for (const harness::ReplicatedResult& r : results_) path_len += r.avg_path_length.mean();
    path_len /= static_cast<double>(std::max<std::size_t>(results_.size(), 1));
    const PaymentTiming pay =
        time_payment(tracer, parent, seed_, n, shape.pair_count, shape.connections_per_pair,
                     static_cast<std::size_t>(std::max(1.0, std::round(path_len))), checks);
    out.emplace_back("payment.account_open_ms", pay.account_open_ms);
    out.emplace_back("payment.settle_us.p50", pay.settle_us.p50);
    out.emplace_back("payment.settle_us.p95", pay.settle_us.p95);
    out.emplace_back("payment.withdraw_us", pay.withdraw_us);
    out.emplace_back("payment.mac_ns", pay.mac_ns);

    out.emplace_back("transport.encode_ns", 0.0);  // no frames on the synchronous path
    out.emplace_back("transport.decode_ns", 0.0);
    out.emplace_back("transport.bytes_per_frame", 0.0);
  }

 private:
  std::uint64_t seed_;
  std::size_t reps_per_cell_ = 16;
  std::vector<harness::ScenarioConfig> cells_;
  std::vector<harness::ReplicatedResult> results_;
};

// --- fault_population --------------------------------------------------------

class FaultPopulation final : public Workload {
 public:
  FaultPopulation(std::uint64_t seed, Scale scale) : seed_(seed) {
    const bool full = scale == Scale::kFull;
    cfg_ = harness::paper_default_config(seed);
    cfg_.overlay.node_count = full ? 10000 : 500;
    cfg_.overlay.degree = 10;
    cfg_.pair_count = full ? 2500 : 125;
    cfg_.connections_per_pair = 4;
    cfg_.responder_zipf = 1.0;
    cfg_.warmup = sim::minutes(30.0);
    cfg_.pair_start_window = sim::minutes(45.0);
    cfg_.fault.link_loss = 0.05;
    cfg_.fault.delay_jitter = 0.3;
    cfg_.fault.crash_rate_per_hour = 2.0;
    cfg_.fault.crash_recovery_mean = sim::minutes(10.0);
    cfg_.async_setup.attempt_deadline = sim::minutes(3.0);
    cfg_.data_phase.duration = 90.0;
    cfg_.data_phase.keepalive_interval = 10.0;
    cfg_.fault.bank.claim_loss = 0.1;
    cfg_.fault.bank.initiator_crash = 0.2;
    cfg_.fault.bank.forwarder_crash = 0.05;
    cfg_.transport = harness::TransportBackend::kSim;
  }

  const char* name() const noexcept override { return "fault_population"; }
  std::size_t replicates() const noexcept override { return 1; }
  bool uses_pool() const noexcept override { return false; }

  void setup_pass(parallel::ThreadPool* /*pool*/) override {
    harness::ScenarioConfig cfg = cfg_;
    cfg.connections_per_pair = 0;
    cfg.warmup = 0.0;
    (void)harness::ScenarioRunner(cfg).run();
  }

  std::uint64_t pass(parallel::ThreadPool* /*pool*/) override {
    result_ = harness::ScenarioRunner(cfg_).run();
    return fingerprint_of(result_);
  }

  void check(Checks& checks) const override {
    const harness::ScenarioResult& r = result_;
    check_money(checks, "fault_population", r.payment_conserved, r.settlement_reconciled,
                r.settlement_escrow_milli, r.settlement_paid_milli, r.settlement_refunded_milli);
    checks.expect(r.engine_callback_heap_allocs == 0,
                  "fault_population: event callbacks fell back to the heap");
    checks.expect(r.settlements_closed + r.settlements_abandoned + r.settlements_expired ==
                      cfg_.pair_count,
                  "fault_population: a pair's settlement did not reach a terminal state");
    checks.expect(r.transport_frames_rejected == 0,
                  "fault_population: the wire codec rejected a frame");
    checks.expect(r.transport_frames_sent == r.transport_frames_delivered + r.transport_frames_dropped,
                  "fault_population: frames sent != delivered + dropped");
    checks.expect(r.connections_completed > 0, "fault_population: no connection completed");
  }

  void check_pool_invariance(Checks& /*checks*/, parallel::ThreadPool* /*pool*/) override {}

  void counts(Metrics& out) const override {
    const harness::ScenarioResult& r = result_;
    const auto attempted = static_cast<double>(r.connections_completed + r.connections_failed);
    out.emplace_back("conn_fail_share", ratio(static_cast<double>(r.connections_failed), attempted));
    out.emplace_back("sim.events_fired", static_cast<double>(r.engine_events_fired));
    out.emplace_back("sim.events_scheduled", static_cast<double>(r.engine_events_scheduled));
    out.emplace_back("sim.events_cancelled", static_cast<double>(r.engine_events_cancelled));
    out.emplace_back("sim.cancel_ratio", ratio(static_cast<double>(r.engine_events_cancelled),
                                               static_cast<double>(r.engine_events_scheduled)));
    out.emplace_back("sim.callback_heap_allocs", static_cast<double>(r.engine_callback_heap_allocs));
    out.emplace_back("sim.cross_shard_messages", static_cast<double>(r.engine_cross_shard_messages));
    out.emplace_back("sim.window_barriers", static_cast<double>(r.engine_window_barriers));
    out.emplace_back("net.churn_events", static_cast<double>(r.churn_events));
    out.emplace_back("net.probes", static_cast<double>(r.probes));
    out.emplace_back("core.paths_built", static_cast<double>(r.setup_attempts));
    out.emplace_back("core.setup_success_ratio",
                     ratio(static_cast<double>(r.connections_completed),
                           static_cast<double>(r.setup_attempts)));
    out.emplace_back("core.reformations", static_cast<double>(r.reformations));
    out.emplace_back("core.forwarder_set_size", r.forwarder_set_size.mean());
    out.emplace_back("core.path_length", r.avg_path_length.mean());
    out.emplace_back("payment.settlements_closed", static_cast<double>(r.settlements_closed));
    out.emplace_back("payment.settlements_abandoned", static_cast<double>(r.settlements_abandoned));
    out.emplace_back("payment.settlements_expired", static_cast<double>(r.settlements_expired));
    out.emplace_back("payment.claims_submitted", static_cast<double>(r.claims_submitted));
    out.emplace_back("payment.claims_lost", static_cast<double>(r.claims_lost));
    out.emplace_back("payment.claims_rejected", static_cast<double>(r.claims_rejected));
    out.emplace_back("transport.frames_sent", static_cast<double>(r.transport_frames_sent));
    out.emplace_back("transport.frames_delivered", static_cast<double>(r.transport_frames_delivered));
    out.emplace_back("transport.frames_dropped", static_cast<double>(r.transport_frames_dropped));
    out.emplace_back("transport.frames_rejected", static_cast<double>(r.transport_frames_rejected));
    out.emplace_back("transport.frames_per_connection",
                     ratio(static_cast<double>(r.transport_frames_sent), attempted));
    out.emplace_back("fault.messages_dropped", static_cast<double>(r.messages_dropped));
    out.emplace_back("fault.crashes", static_cast<double>(r.crashes));
    out.emplace_back("fault.ack_timeouts", static_cast<double>(r.setup_ack_timeouts));
  }

  void trace_layers(Tracer& tracer, int parent, parallel::ThreadPool& /*pool*/, double wall_s,
                    double setup_s, Metrics& out, Checks& checks) override {
    const harness::ScenarioResult& r = result_;
    // The pass is the one replicate.
    out.emplace_back("harness.replicate_ms.p50", 1e3 * wall_s);
    out.emplace_back("harness.replicate_ms.p95", 1e3 * wall_s);
    // One serial replicate: no pool, no shards.
    out.emplace_back("parallel.busy_share", 0.0);
    out.emplace_back("parallel.task_wait_ms.p50", 0.0);
    out.emplace_back("parallel.shard_speedup", 0.0);
    out.emplace_back("sim.run_ns_per_event",
                     ratio(1e9 * (wall_s - setup_s), static_cast<double>(r.engine_events_fired)));

    // Fault mode forms paths hop by hop in the async runner, not through
    // run_connection; the sharded decision path is not used.
    for (const char* zero :
         {"core.path_build_us.model1.p50", "core.path_build_us.model1.p95",
          "core.path_build_us.model2.p50", "core.path_build_us.model2.p95",
          "core.pick_best_ns", "net.probe_ns"}) {
      out.emplace_back(zero, 0.0);
    }

    const std::size_t n = cfg_.overlay.node_count;
    const std::size_t d = cfg_.overlay.degree;
    const OverlayTiming ov = time_overlay(tracer, parent, seed_, n, d, cfg_.warmup, &cfg_.fault);
    out.emplace_back("net.overlay_build_ms", ov.build_ms);
    out.emplace_back("sim.warmup_ms", ov.warmup_ms);
    out.emplace_back("fault.decision_ns", ov.fault_decision_ns);
    out.emplace_back("sim.sample_indices_ms", time_sample_indices_ms(tracer, parent, seed_, n, d));
    out.emplace_back("sim.zipf_pick_ms", time_zipf_ms(tracer, parent, seed_, n, cfg_.pair_count));

    const double path_len = r.avg_path_length.mean();
    const PaymentTiming pay =
        time_payment(tracer, parent, seed_, n, cfg_.pair_count, cfg_.connections_per_pair,
                     static_cast<std::size_t>(std::max(1.0, std::round(path_len))), checks);
    out.emplace_back("payment.account_open_ms", pay.account_open_ms);
    out.emplace_back("payment.settle_us.p50", pay.settle_us.p50);
    out.emplace_back("payment.settle_us.p95", pay.settle_us.p95);
    out.emplace_back("payment.withdraw_us", pay.withdraw_us);
    out.emplace_back("payment.mac_ns", pay.mac_ns);

    // Expected frames per type in this workload: every setup attempt and
    // every keepalive crosses the path's L + 1 links out and back, each
    // setup leg is acked, and the bank receives claims and closes.
    const double hops = 2.0 * (path_len + 1.0);
    FrameMix mix;
    mix.legs = static_cast<double>(r.setup_attempts) * hops;
    mix.acks = mix.legs;
    mix.data = static_cast<double>(r.keepalives_sent) * hops;
    mix.claims = static_cast<double>(r.claims_submitted);
    mix.closes = static_cast<double>(r.settlements_closed);
    const CodecTiming codec = time_codec(tracer, parent, seed_, mix, checks);
    out.emplace_back("transport.encode_ns", codec.encode_ns);
    out.emplace_back("transport.decode_ns", codec.decode_ns);
    out.emplace_back("transport.bytes_per_frame", codec.bytes_per_frame);
  }

 private:
  std::uint64_t seed_;
  harness::ScenarioConfig cfg_;
  harness::ScenarioResult result_;
};

// --- sharded_scale -----------------------------------------------------------

class ShardedScale final : public Workload {
 public:
  ShardedScale(std::uint64_t seed, Scale scale) : seed_(seed) {
    const bool full = scale == Scale::kFull;
    cfg_.seed = seed;
    cfg_.node_count = full ? 100000 : 5000;
    cfg_.degree = 8;
    cfg_.shard_count = 4;
    cfg_.window = 30.0;
    cfg_.duration = sim::minutes(full ? 120.0 : 10.0);
  }

  const char* name() const noexcept override { return "sharded_scale"; }
  std::size_t replicates() const noexcept override { return 1; }
  bool uses_pool() const noexcept override { return true; }

  void setup_pass(parallel::ThreadPool* pool) override {
    harness::ShardedScenarioConfig cfg = cfg_;
    cfg.duration = 0.0;
    (void)harness::run_sharded_scenario(cfg, pool);
  }

  std::uint64_t pass(parallel::ThreadPool* pool) override {
    result_ = harness::run_sharded_scenario(cfg_, pool);
    return fingerprint_of(result_);
  }

  void check(Checks& checks) const override {
    const harness::ShardedScenarioResult& r = result_;
    checks.expect(r.engine.callback_heap_allocs == 0,
                  "sharded_scale: event callbacks fell back to the heap");
    checks.expect(r.claims_settled == r.hops_forwarded,
                  "sharded_scale: forwarding claims accrued != claims settled");
    checks.expect(r.connections_acked + r.ack_timeouts <= r.connections_launched,
                  "sharded_scale: more connections resolved than launched");
    checks.expect(r.per_shard.size() == cfg_.shard_count, "sharded_scale: wrong shard count");
    checks.expect(r.connections_launched > 0, "sharded_scale: no connection launched");
  }

  void check_pool_invariance(Checks& checks, parallel::ThreadPool* pool) override {
    // At N = 10^4 (same K, W and horizon): one thread at N = 10^5 would
    // cost several passes, and the invariance is a property of the
    // windowed engine, not of N.
    harness::ShardedScenarioConfig cfg = cfg_;
    cfg.node_count = std::min<std::size_t>(cfg.node_count, 10000);
    parallel::ThreadPool single(1);
    checks.expect(fingerprint_of(harness::run_sharded_scenario(cfg, &single)) ==
                      fingerprint_of(harness::run_sharded_scenario(cfg, pool)),
                  "sharded_scale: result differs between a pool of 1 thread and the measured pool");
  }

  void counts(Metrics& out) const override {
    const harness::ShardedScenarioResult& r = result_;
    out.emplace_back("conn_fail_share",
                     ratio(static_cast<double>(r.ack_timeouts + r.no_candidate),
                           static_cast<double>(r.connections_launched)));
    out.emplace_back("sim.events_fired", static_cast<double>(r.engine.fired));
    out.emplace_back("sim.events_scheduled", static_cast<double>(r.engine.scheduled));
    out.emplace_back("sim.events_cancelled", static_cast<double>(r.engine.cancelled));
    out.emplace_back("sim.cancel_ratio", ratio(static_cast<double>(r.engine.cancelled),
                                               static_cast<double>(r.engine.scheduled)));
    out.emplace_back("sim.callback_heap_allocs", static_cast<double>(r.engine.callback_heap_allocs));
    out.emplace_back("sim.cross_shard_messages", static_cast<double>(r.cross_shard_messages));
    out.emplace_back("sim.window_barriers", static_cast<double>(r.window_barriers));
    out.emplace_back("net.churn_events", static_cast<double>(r.churn_events));
    out.emplace_back("net.probes", static_cast<double>(r.probes));
    out.emplace_back("core.setup_success_ratio",
                     ratio(static_cast<double>(r.connections_acked),
                           static_cast<double>(r.connections_launched)));
    out.emplace_back("fault.ack_timeouts", static_cast<double>(r.ack_timeouts));
    // PathBuilder, payment and transport are bypassed: hops are greedy
    // pick_best walks, claims settle as counters at the window barrier.
    for (const char* zero :
         {"core.paths_built", "core.reformations", "core.forwarder_set_size", "core.path_length",
          "payment.settlements_closed", "payment.settlements_abandoned",
          "payment.settlements_expired", "payment.claims_submitted", "payment.claims_lost",
          "payment.claims_rejected", "transport.frames_sent", "transport.frames_delivered",
          "transport.frames_dropped", "transport.frames_rejected",
          "transport.frames_per_connection", "fault.messages_dropped", "fault.crashes"}) {
      out.emplace_back(zero, 0.0);
    }
  }

  void trace_layers(Tracer& tracer, int parent, parallel::ThreadPool& pool, double wall_s,
                    double setup_s, Metrics& out, Checks& /*checks*/) override {
    const harness::ShardedScenarioResult& r = result_;
    // Run phase at K = 1 against this workload's K, same N: a full call
    // minus the zero-horizon call this process already timed (building the
    // world does the same work for any K).
    double k1_wall = 0.0;
    {
      harness::ShardedScenarioConfig cfg = cfg_;
      cfg.shard_count = 1;
      ScopedSpan s(tracer, "harness.replicate.k1", parent);
      const Clock::time_point t0 = Clock::now();
      (void)harness::run_sharded_scenario(cfg, &pool);
      k1_wall = seconds_between(t0, Clock::now());
    }
    out.emplace_back("harness.replicate_ms.p50", 1e3 * wall_s);  // the pass is the one replicate
    out.emplace_back("harness.replicate_ms.p95", 1e3 * wall_s);
    out.emplace_back("parallel.shard_speedup", ratio(k1_wall - setup_s, wall_s - setup_s));
    // The pool runs shard windows inside the engine, where the benchmark
    // cannot place spans; replicate tasks do not exist here.
    out.emplace_back("parallel.busy_share", 0.0);
    out.emplace_back("parallel.task_wait_ms.p50", 0.0);
    out.emplace_back("sim.run_ns_per_event",
                     ratio(1e9 * (wall_s - setup_s), static_cast<double>(r.engine.fired)));

    const ShardedDecisionTiming dec = time_sharded_decisions(
        tracer, parent, seed_, cfg_.node_count, cfg_.degree, cfg_.shard_count);
    out.emplace_back("net.probe_ns", dec.probe_ns);
    out.emplace_back("core.pick_best_ns", dec.pick_best_ns);
    out.emplace_back("sim.sample_indices_ms",
                     time_sample_indices_ms(tracer, parent, seed_, cfg_.node_count, cfg_.degree));
    // The sharded world builds its own SoA overlay (no net::Overlay, no
    // warm-up), and has no bank, no wire frames and no Zipf responders.
    for (const char* zero :
         {"net.overlay_build_ms", "sim.warmup_ms", "sim.zipf_pick_ms", "fault.decision_ns",
          "core.path_build_us.model1.p50", "core.path_build_us.model1.p95",
          "core.path_build_us.model2.p50", "core.path_build_us.model2.p95",
          "payment.account_open_ms", "payment.settle_us.p50", "payment.settle_us.p95",
          "payment.withdraw_us", "payment.mac_ns", "transport.encode_ns", "transport.decode_ns",
          "transport.bytes_per_frame"}) {
      out.emplace_back(zero, 0.0);
    }
  }

 private:
  std::uint64_t seed_;
  harness::ShardedScenarioConfig cfg_;
  harness::ShardedScenarioResult result_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        Scale scale) {
  if (name == "paper_sweep") return std::make_unique<PaperSweep>(seed, scale);
  if (name == "fault_population") return std::make_unique<FaultPopulation>(seed, scale);
  if (name == "sharded_scale") return std::make_unique<ShardedScale>(seed, scale);
  return nullptr;
}

}  // namespace perfbench
