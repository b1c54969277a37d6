#include "harness/paper_sharded.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/edge_quality.hpp"
#include "core/history.hpp"
#include "core/path.hpp"
#include "core/routing.hpp"
#include "harness/checkpoint.hpp"
#include "net/link_model.hpp"
#include "net/sharded_probing.hpp"
#include "net/soa.hpp"
#include "payment/money.hpp"
#include "payment/receipt.hpp"
#include "payment/sharded_settlement.hpp"
#include "sim/rng.hpp"
#include "sim/sharded.hpp"

namespace p2panon::harness {

namespace {

using net::NodeId;
using payment::Amount;

struct alignas(64) PaperShardCounters {
  std::uint64_t churn_events = 0;
  std::uint64_t departures = 0;
  std::uint64_t connections_launched = 0;
  std::uint64_t connections_completed = 0;
  std::uint64_t connections_failed = 0;  ///< initiator/responder down or hop lost
  std::uint64_t hops_recorded = 0;       ///< forwarder instances on completed paths
};

/// One (I, R) pair's lifecycle, owned by the initiator's shard.
struct PairState {
  NodeId initiator = net::kInvalidNode;
  NodeId responder = net::kInvalidNode;
  core::Contract contract;  ///< P_f, P_r and the termination rule, in credits
  std::uint32_t launched = 0;
  std::uint32_t completed = 0;
  std::uint64_t instances = 0;  ///< total forwarder instances across records
  std::vector<payment::PathRecord> records;
  /// (forwarder, view epoch) -> receipts accrued — the forwarder-epoch
  /// aggregation unit. Ordered so claim ops are enqueued deterministically.
  std::map<std::pair<NodeId, std::uint32_t>, std::vector<payment::ForwardReceipt>> aggregates;
  /// Each member's transmission cost C_t over its instances in the set.
  std::map<NodeId, double> member_cost;
  double length_sum = 0.0;   ///< sum of forwarder-path lengths L over completed
  double latency_sum = 0.0;  ///< sum of end-to-end path latencies (seconds)
  sim::Time deadline = payment::kNoSettlementDeadline;

  payment::SettlementHandle handle;
  bool opened = false;
  bool close_skipped = false;  ///< bank-fault initiator crash: deadline decides
  std::uint64_t claims_lost = 0;
};

/// One completed path awaiting the next history fold.
struct PendingPath {
  net::PairId pair = net::kInvalidPair;
  std::vector<NodeId> path;  ///< initiator, forwarders..., responder
};

/// One shard's path formation: a builder and the decision arena it threads
/// through every hop. Cache-line aligned, since shards decide concurrently.
struct alignas(64) ShardBuilder {
  ShardBuilder(const net::NodeStateSoA& nodes, net::LivenessView believed,
               const net::LinkModel& links, const core::EdgeQualityEvaluator& quality,
               core::PathBuilderConfig cfg)
      : builder(nodes, believed, links, quality, cfg, &resources) {}

  core::DecisionResources resources;
  core::PathBuilder builder;
};

/// One deferred settlement-plane operation, drained at the next barrier.
struct SettleOp {
  enum class Kind : std::uint8_t { kOpen, kClaim, kClose };
  Kind kind = Kind::kOpen;
  std::uint32_t pair = 0;
  payment::AggregatedClaim claim;  ///< kClaim only
};

class PaperWorld {
 public:
  PaperWorld(const ScenarioConfig& cfg, sim::ShardedSimulator& engine)
      : cfg_(cfg),
        engine_(engine),
        node_count_(cfg.overlay.node_count),
        degree_(cfg.overlay.degree),
        partition_(cfg.overlay.node_count, engine.shard_count()),
        stream_(sim::rng::Stream(cfg.seed).child("paper-sharded")),
        links_(cfg.overlay.link, cfg.seed),
        history_(cfg.overlay.node_count),
        plane_(cfg.bank_partitions != 0 ? cfg.bank_partitions : engine.shard_count(),
               cfg.overlay.node_count, payment::from_credits(kInitialBalanceCredits),
               stream_.child("plane")),
        counters_(partition_.shard_count()),
        history_buf_(partition_.shard_count()),
        settle_buf_(partition_.shard_count()),
        probe_lane_(engine.add_lane()),
        strategy_(core::make_strategy(cfg.good_strategy, cfg.lookahead_depth)),
        strategies_(state_, *strategy_) {
    assert(node_count_ >= 4);
    assert(degree_ >= 1 && degree_ < node_count_);
    state_.resize(node_count_, degree_);
    probing_ = std::make_unique<net::ShardedProbing>(state_, partition_, cfg.probing.period,
                                                     stream_.child("probing"));
    snapshot_ = std::make_unique<net::ShardedProbing>(state_, partition_, cfg.probing.period,
                                                      stream_.child("probing"));
    quality_ = std::make_unique<core::EdgeQualityEvaluator>(*snapshot_, history_, cfg.weights);

    net::assign_node_kinds(state_, cfg.overlay.malicious_fraction,
                           cfg.overlay.participation_cost, stream_.child("malicious"));
    net::sample_neighbors(state_, stream_.child("neighbors"));

    // Decisions believe the published snapshot; state_.crashed stays all
    // zero (this runner injects no crashes).
    published_.assign(node_count_, 0);
    const net::LivenessView believed{published_.data(), state_.crashed.data()};
    for (std::uint32_t s = 0; s < partition_.shard_count(); ++s) {
      builders_.push_back(std::make_unique<ShardBuilder>(state_, believed, links_, *quality_,
                                                         cfg.path_builder));
    }
    churn_cycle_.assign(node_count_, 0);

    // View-refresh interval R, snapped to a whole number of windows so every
    // refresh lands on a window boundary for ANY window that divides R.
    const sim::Time window = engine.window();
    const sim::Time requested = cfg.view_refresh > 0.0 ? cfg.view_refresh : window;
    const auto multiple = static_cast<std::uint64_t>(
        std::max<long long>(1, std::llround(requested / window)));
    refresh_interval_ = static_cast<sim::Time>(multiple) * window;
    half_window_ = window * 0.5;
    next_refresh_ = refresh_interval_;

    // Bounded-Pareto session shape for the configured median (truncation
    // shifts the median, so the shape is solved, not closed-form).
    session_shape_ = sim::rng::bounded_pareto_shape_for_median(
        cfg.overlay.churn.session_min, cfg.overlay.churn.session_max,
        cfg.overlay.churn.session_median);

    build_pairs();
  }

  /// Horizon: past every launch plus the settlement tail, snapped up to a
  /// whole number of refresh intervals (so runs with different windows
  /// execute the same refresh boundaries).
  [[nodiscard]] sim::Time duration() const noexcept { return duration_; }

  void seed_events() {
    for (NodeId id = 0; id < node_count_; ++id) {
      const sim::Time at = stream_.child("join", id).uniform(0.0, cfg_.warmup);
      const std::uint32_t s = partition_.shard_of(id);
      engine_.post(s, s, at, [this, id] { do_join(id); });
    }
    for (std::uint32_t p = 0; p < pairs_.size(); ++p) {
      if (launch_times_[p].empty()) continue;  // connections_per_pair == 0
      const std::uint32_t s = owner_shard(p);
      engine_.post(s, s, launch_times_[p][0], [this, p] { launch(p, 0); });
    }
    // Barrier heartbeats: the engine fast-forwards over empty windows, so a
    // refresh boundary inside a quiet stretch would otherwise be skipped and
    // caught up late — after events past the boundary already ran. A no-op
    // event just before each refresh time forces the barrier to fire at it.
    const auto beats = static_cast<std::uint64_t>(duration_ / refresh_interval_);
    for (std::uint64_t q = 1; q <= beats; ++q) {
      const sim::Time at = static_cast<sim::Time>(q) * refresh_interval_ - 1.0e-7;
      engine_.post(0, 0, at, [] {});
    }
  }

  /// Serial barrier hook: refresh the merged read views at refresh
  /// boundaries, then drain every shard's settlement buffer into the plane.
  void on_barrier(sim::Time boundary) {
    while (next_refresh_ <= boundary + half_window_) {
      refresh_views();
      next_refresh_ += refresh_interval_;
    }
    drain_settlements();
  }

  [[nodiscard]] ScenarioResult finish() {
    drain_settlements();  // pairs completed after the final barrier
    plane_.expire_due(duration_ + 1.0);
    const payment::PlaneReconciliation rec = plane_.reconcile();
    return build_result(rec);
  }

 private:
  [[nodiscard]] std::uint32_t owner_shard(std::uint32_t pair) const noexcept {
    return partition_.shard_of(pairs_[pair].initiator);
  }
  [[nodiscard]] sim::Simulator& local_sim(std::uint32_t s) { return engine_.shard(s); }
  [[nodiscard]] std::uint64_t key_of(std::uint32_t pair, std::uint64_t n) const noexcept {
    return (static_cast<std::uint64_t>(pair) << 32) | n;
  }

  void build_pairs() {
    const auto pair_count = static_cast<std::uint32_t>(cfg_.pair_count);
    pairs_.resize(pair_count);
    launch_times_.resize(pair_count);
    sim::Time horizon = 0.0;
    for (std::uint32_t p = 0; p < pair_count; ++p) {
      PairState& st = pairs_[p];
      auto id_stream = stream_.child("pair-ids", p);
      st.initiator = static_cast<NodeId>(id_stream.uniform_int(0, node_count_ - 1));
      do {
        st.responder = cfg_.responder_zipf > 0.0
                           ? static_cast<NodeId>(id_stream.zipf(node_count_, cfg_.responder_zipf))
                           : static_cast<NodeId>(id_stream.uniform_int(0, node_count_ - 1));
      } while (st.responder == st.initiator);
      st.contract = cfg_.contract_for(stream_.child("pf", p).uniform(cfg_.p_f_lo, cfg_.p_f_hi));

      auto& times = launch_times_[p];
      times.reserve(cfg_.connections_per_pair);
      sim::Time t = cfg_.warmup + stream_.child("pair-start", p).uniform(0.0, cfg_.pair_start_window);
      const double rate = 1.0 / cfg_.connection_interval_mean;
      for (std::uint32_t j = 0; j < cfg_.connections_per_pair; ++j) {
        times.push_back(t);
        t += stream_.child("conn-gap", key_of(p, j)).exponential(rate);
      }
      if (!times.empty()) horizon = std::max(horizon, times.back());
    }
    // Tail: claim deadline plus one hour, then snap UP to a refresh boundary.
    // The digest folds availability at duration_ and the refresh grid is
    // anchored to it, so this tail is part of every pinned answer.
    const sim::Time tail = horizon + cfg_.fault.bank.claim_deadline + sim::hours(1.0);
    duration_ = std::ceil(tail / refresh_interval_) * refresh_interval_;
  }

  // ---- churn & probing (same-shard events; scale-scenario idiom) ---------

  void do_join(NodeId id) {
    if (state_.departed[id] != 0 || state_.online[id] != 0) return;
    const std::uint32_t s = partition_.shard_of(id);
    const sim::Time now = local_sim(s).now();
    state_.online[id] = 1;
    state_.tracker[id].on_join(now);
    ++counters_[s].churn_events;

    if (probing_->wake(id)) post_probe(id);

    const std::uint64_t cycle = churn_cycle_[id];
    const net::ChurnConfig& churn = cfg_.overlay.churn;
    const sim::Time session =
        stream_.child("session", key_of_node(id, cycle))
            .bounded_pareto(session_shape_, churn.session_min, churn.session_max);
    engine_.post(s, s, now + session, [this, id, cycle] { do_leave(id, cycle); });
  }

  void do_leave(NodeId id, std::uint64_t cycle) {
    if (state_.online[id] == 0 || churn_cycle_[id] != cycle) return;
    const std::uint32_t s = partition_.shard_of(id);
    const sim::Time now = local_sim(s).now();
    state_.online[id] = 0;
    state_.tracker[id].on_leave(now);
    ++counters_[s].churn_events;
    ++churn_cycle_[id];

    const std::uint64_t next_cycle = churn_cycle_[id];
    if (stream_.child("depart", key_of_node(id, next_cycle)).next_double() <
        cfg_.overlay.churn.departure_probability) {
      state_.departed[id] = 1;
      ++counters_[s].departures;
      return;
    }
    const sim::Time gap = stream_.child("gap", key_of_node(id, next_cycle))
                              .exponential(1.0 / cfg_.overlay.churn.offline_gap_mean);
    engine_.post(s, s, now + gap, [this, id] { do_join(id); });
  }

  // Probe ticks repeat at one fixed period, so they ride a FIFO lane.
  void post_probe(NodeId id) {
    local_sim(partition_.shard_of(id))
        .schedule_in(probe_lane_, cfg_.probing.period, [this, id] { probe_tick(id); });
  }

  void probe_tick(NodeId id) {
    if (!probing_->tick(id, published_)) return;
    post_probe(id);
  }

  [[nodiscard]] std::uint64_t key_of_node(NodeId id, std::uint64_t n) const noexcept {
    return (static_cast<std::uint64_t>(id) << 32) | n;
  }

  // ---- connections --------------------------------------------------------

  /// Launch connection j of pair p on the owner shard. The shard's path
  /// builder forms the whole path here, reading only epoch snapshots
  /// (published liveness, snapshot estimator, folded history) besides
  /// static topology, kinds and costs, so the outcome is identical for any
  /// K, pool size, and window dividing the refresh interval.
  void launch(std::uint32_t p, std::uint32_t j) {
    PairState& st = pairs_[p];
    const std::uint32_t s = owner_shard(p);
    const sim::Time now = local_sim(s).now();
    ++st.launched;
    ++counters_[s].connections_launched;

    if (j + 1 < cfg_.connections_per_pair) {
      engine_.post(s, s, launch_times_[p][j + 1], [this, p, j] { launch(p, j + 1); });
    }

    // Initiator liveness is a live same-shard read (the pair runs on its
    // shard); the responder is checked against the published snapshot.
    if (state_.online[st.initiator] == 0 || state_.departed[st.initiator] != 0 ||
        published_[st.responder] == 0) {
      ++counters_[s].connections_failed;
      finish_if_last(p, j, now);
      return;
    }

    auto conn_stream = stream_.child("conn", key_of(p, j));
    const std::uint32_t k = j + 1;  // 1-based connection index, as in the serial runner
    core::BuiltPath built = builders_[s]->builder.build(static_cast<net::PairId>(p), k,
                                                         st.initiator, st.responder,
                                                         st.contract, strategies_, conn_stream);
    std::vector<NodeId>& path = built.nodes;

    // Fault plane: each edge of the path is an independent keyed loss draw;
    // any lost edge fails the connection (no record, no receipts).
    std::size_t delivered_edges = path.size() - 1;
    if (cfg_.fault.link_loss > 0.0) {
      for (std::size_t e = 0; e + 1 < path.size(); ++e) {
        if (conn_stream.bernoulli(cfg_.fault.link_loss)) {
          delivered_edges = e;
          break;
        }
      }
    }
    if (delivered_edges < path.size() - 1) {
      ++counters_[s].connections_failed;
      finish_if_last(p, j, now);
      return;
    }

    // Completed: record the path, buffer the history writes for the next
    // epoch fold, and accrue each forwarder's receipt into its
    // (forwarder, epoch) aggregate.
    payment::PathRecord record;
    record.conn_index = j;
    record.entry = st.initiator;
    record.exit = st.responder;
    record.forwarders.assign(path.begin() + 1, path.end() - 1);
    const auto epoch = static_cast<std::uint32_t>(now / refresh_interval_);
    for (std::size_t i = 1; i + 1 < path.size(); ++i) {
      st.aggregates[{path[i], epoch}].push_back(payment::make_receipt(
          plane_.mac_key_of(path[i]), static_cast<net::PairId>(p), j, path[i], path[i - 1],
          path[i + 1]));
      st.member_cost[path[i]] += links_.transmission_cost(path[i], path[i + 1]);
      ++counters_[s].hops_recorded;
    }
    st.instances += record.forwarders.size();
    st.length_sum += static_cast<double>(record.forwarders.size());
    st.latency_sum += links_.path_latency(path);
    history_buf_[s].push_back(PendingPath{static_cast<net::PairId>(p), std::move(path)});
    st.records.push_back(std::move(record));
    ++st.completed;
    ++counters_[s].connections_completed;
    finish_if_last(p, j, now);
  }

  /// After the pair's last launch, enqueue its settlement ops — open,
  /// aggregated claims, close — as one contiguous FIFO run in the owner
  /// shard's buffer. The serial barrier hook applies them to the plane.
  void finish_if_last(std::uint32_t p, std::uint32_t j, sim::Time now) {
    if (j + 1 != cfg_.connections_per_pair) return;
    PairState& st = pairs_[p];
    if (st.records.empty()) return;  // nothing to settle; outcome code 0

    const std::uint32_t s = owner_shard(p);
    st.deadline = now + cfg_.fault.bank.claim_deadline;
    settle_buf_[s].push_back(SettleOp{SettleOp::Kind::kOpen, p, {}});

    auto fault_stream = stream_.child("bank-fault", p);
    const bool bank_faults = cfg_.fault.bank.enabled();
    NodeId crashed_forwarder = net::kInvalidNode;
    for (auto& [fwd_epoch, receipts] : st.aggregates) {
      const auto& [fwd, epoch] = fwd_epoch;
      if (bank_faults) {
        if (fwd != crashed_forwarder && cfg_.fault.bank.forwarder_crash > 0.0 &&
            fault_stream.bernoulli(cfg_.fault.bank.forwarder_crash)) {
          crashed_forwarder = fwd;
        }
        if (fwd == crashed_forwarder ||
            (cfg_.fault.bank.claim_loss > 0.0 &&
             fault_stream.bernoulli(cfg_.fault.bank.claim_loss))) {
          st.claims_lost += receipts.size();
          continue;
        }
      }
      payment::AggregatedClaim claim;
      claim.claimant = plane_.account_of(fwd);
      claim.epoch = epoch;
      claim.receipts = std::move(receipts);
      payment::seal_aggregated_claim(plane_.mac_key_of(fwd), p, claim);
      settle_buf_[s].push_back(SettleOp{SettleOp::Kind::kClaim, p, std::move(claim)});
    }
    st.aggregates.clear();

    st.close_skipped = bank_faults && cfg_.fault.bank.initiator_crash > 0.0 &&
                       fault_stream.bernoulli(cfg_.fault.bank.initiator_crash);
    if (!st.close_skipped) {
      settle_buf_[s].push_back(SettleOp{SettleOp::Kind::kClose, p, {}});
    }
  }

  // ---- barrier work -------------------------------------------------------

  /// Epoch boundary: fold the buffered paths into the history store
  /// shard-ascending, FIFO within a shard (the store is unbounded, so its
  /// counts, and every sigma, are the same for any K), then republish
  /// liveness and copy the live estimates into the snapshot estimator.
  /// Shards only read the store and the snapshot between refreshes.
  void refresh_views() {
    for (std::uint32_t s = 0; s < partition_.shard_count(); ++s) {
      for (const PendingPath& done : history_buf_[s]) {
        history_.record_path(done.pair, done.path);
      }
      history_buf_[s].clear();
    }
    for (NodeId id = 0; id < node_count_; ++id) {
      published_[id] = state_.appears_online(id) ? 1 : 0;
    }
    snapshot_->copy_estimates(*probing_);
  }

  /// Apply every buffered settlement op, source shard ascending, FIFO
  /// within a shard — each pair's open -> claims -> close run is contiguous,
  /// so per-pair outcomes are independent of how barriers batch the ops.
  void drain_settlements() {
    for (std::uint32_t s = 0; s < partition_.shard_count(); ++s) {
      for (SettleOp& op : settle_buf_[s]) {
        PairState& st = pairs_[op.pair];
        switch (op.kind) {
          case SettleOp::Kind::kOpen: {
            const Amount p_f = payment::from_credits(st.contract.forwarding_benefit);
            const Amount p_r = payment::from_credits(st.contract.routing_benefit());
            const Amount escrow = static_cast<Amount>(st.instances) * p_f + p_r;
            auto handle = plane_.open_settlement(
                op.pair, static_cast<net::PairId>(op.pair), st.initiator, escrow,
                payment::SettlementTerms{p_f, p_r}, st.records, st.deadline);
            assert(handle.has_value() && "initial balances must cover every escrow");
            if (handle.has_value()) {
              st.handle = *handle;
              st.opened = true;
              st.records.clear();  // copied into the engine's valid-hops index
              st.records.shrink_to_fit();
            }
            break;
          }
          case SettleOp::Kind::kClaim:
            if (st.opened) plane_.submit_aggregated_claim(op.pair, st.handle, op.claim);
            break;
          case SettleOp::Kind::kClose:
            if (st.opened) plane_.close_settlement(st.handle);
            break;
        }
      }
      settle_buf_[s].clear();
    }
  }

  // ---- result -------------------------------------------------------------

  [[nodiscard]] ScenarioResult build_result(const payment::PlaneReconciliation& rec) {
    ScenarioResult r;
    for (const PaperShardCounters& c : counters_) {
      r.churn_events += c.churn_events;
      r.connections_completed += c.connections_completed;
      r.connections_failed += c.connections_failed;
    }
    r.probes = probing_->probes_performed();
    r.sim_end_time = duration_;

    for (std::uint32_t p = 0; p < pairs_.size(); ++p) {
      const PairState& st = pairs_[p];
      if (!st.opened) continue;
      const payment::SettlementReport* report =
          plane_.partition_view(st.handle.partition).engine.report(st.handle.id);
      assert(report != nullptr && "expire_due terminalises every open settlement");
      if (report == nullptr) continue;
      r.forwarder_set_size.add(static_cast<double>(report->forwarder_set_size));
      if (st.completed > 0) {
        const double avg_len = st.length_sum / st.completed;
        r.avg_path_length.add(avg_len);
        r.connection_latency.add(st.latency_sum / st.completed);
        if (report->forwarder_set_size > 0) {
          r.path_quality.add(avg_len / static_cast<double>(report->forwarder_set_size));
        }
      }
      r.initiator_spend.add(payment::to_credits(report->paid_out));
      // Membership payoff, defined as in the serial runner: for every good
      // member, its payout minus the C_t of its instances in the set and C_p.
      for (const auto& [acct, paid] : report->payouts) {
        const auto owner = static_cast<NodeId>(acct);  // node i is account i
        if (!state_.is_good(owner)) continue;
        const double payoff = payment::to_credits(paid) - st.member_cost.at(owner) -
                              state_.participation_cost[owner];
        r.member_payoff.add(payoff);
        r.member_payoff_samples.push_back(payoff);
      }
      r.claims_lost += st.claims_lost;
    }
    if (r.forwarder_set_size.count() > 0 && r.forwarder_set_size.mean() > 0.0) {
      r.routing_efficiency = r.member_payoff.mean() / r.forwarder_set_size.mean();
    }

    r.settlements_closed = rec.closed;
    r.settlements_abandoned = rec.abandoned;
    r.settlements_expired = rec.expired;
    r.settlements_prorata = rec.prorata;
    r.claims_submitted = rec.claims_accepted + rec.claims_rejected;
    r.claims_rejected = rec.claims_rejected;
    r.claims_after_terminal = rec.claims_after_terminal;
    r.settlement_escrow_milli = rec.escrow_milli;
    r.settlement_paid_milli = rec.paid_milli;
    r.settlement_refunded_milli = rec.refunded_milli;
    r.total_paid_credits = payment::to_credits(rec.paid_milli);
    bool conserved = rec.global_conserved;
    for (const payment::PartitionAudit& part : rec.partitions) conserved &= part.conserved;
    r.payment_conserved = conserved;
    r.settlement_reconciled = rec.ok();

    const sim::EventQueue::Stats engine_stats = engine_.aggregate_queue_stats();
    r.engine_events_scheduled = engine_stats.scheduled;
    r.engine_events_cancelled = engine_stats.cancelled;
    r.engine_events_fired = engine_stats.fired;
    r.engine_callback_heap_allocs = engine_stats.callback_heap_allocs;
    r.engine_cross_shard_messages = engine_.stats().cross_shard_messages;
    r.engine_window_barriers = engine_.stats().window_barriers;

    r.sharded_digest = digest(rec);
    return r;
  }

  /// Order-invariant end-state fingerprint. Covered: per-pair settlement
  /// outcomes, per-node churn/probing end state, folded history totals,
  /// merged per-account balance deltas, per-shard model counters, plane
  /// money totals. Excluded by design: every engine counter
  /// (window-dependent), escrow/settlement/audit-seq ids and coin signatures
  /// (op-order-dependent), and the probing epoch counter, which is driven by
  /// barrier cadence.
  [[nodiscard]] std::uint64_t digest(const payment::PlaneReconciliation& rec) const {
    std::uint64_t h = fnv1a_init();
    for (std::uint32_t p = 0; p < pairs_.size(); ++p) {
      const PairState& st = pairs_[p];
      std::uint64_t outcome = 0;
      std::uint64_t escrow = 0;
      std::uint64_t paid = 0;
      std::uint64_t refunded = 0;
      std::uint64_t accepted = 0;
      std::uint64_t set_size = 0;
      if (st.opened) {
        const payment::SettlementReport* report =
            plane_.partition_view(st.handle.partition).engine.report(st.handle.id);
        if (report != nullptr) {
          switch (report->outcome) {
            case payment::SettlementState::kClosed: outcome = 1; break;
            case payment::SettlementState::kAbandoned: outcome = 2; break;
            case payment::SettlementState::kExpired: outcome = 3; break;
            default: outcome = 4; break;
          }
          escrow = static_cast<std::uint64_t>(report->escrow_in);
          paid = static_cast<std::uint64_t>(report->paid_out);
          refunded = static_cast<std::uint64_t>(report->refunded);
          accepted = report->accepted_claims;
          set_size = report->forwarder_set_size;
        }
      }
      h = fnv1a_mix(h, outcome | (static_cast<std::uint64_t>(st.completed) << 8) |
                           (static_cast<std::uint64_t>(st.launched) << 24) |
                           (static_cast<std::uint64_t>(st.close_skipped) << 40));
      h = fnv1a_mix(h, escrow);
      h = fnv1a_mix(h, paid);
      h = fnv1a_mix(h, refunded);
      h = fnv1a_mix(h, accepted | (set_size << 32));
      h = fnv1a_mix(h, st.claims_lost);
      h = fnv1a_double(h, st.length_sum);
      h = fnv1a_double(h, st.latency_sum);
    }
    for (NodeId id = 0; id < node_count_; ++id) {
      h = fnv1a_mix(h, state_.online[id] |
                           (static_cast<std::uint64_t>(state_.departed[id]) << 8) |
                           (static_cast<std::uint64_t>(churn_cycle_[id]) << 16));
      h = fnv1a_double(h, state_.tracker[id].availability(duration_));
      for (std::size_t slot = 0; slot < degree_; ++slot) {
        h = fnv1a_double(h, probing_->observed_session_time(id, slot));
      }
      const Amount delta =
          plane_.merged_balance(static_cast<payment::AccountId>(id)) -
          payment::from_credits(kInitialBalanceCredits);
      h = fnv1a_mix(h, static_cast<std::uint64_t>(delta));
    }
    h = fnv1a_mix(h, history_.total_entries());
    for (std::uint32_t s = 0; s < partition_.shard_count(); ++s) {
      std::size_t entries = 0;
      const net::ShardPartition::Range nodes = partition_.range(s);
      for (NodeId id = nodes.begin; id < nodes.end; ++id) entries += history_.at(id).size();
      h = fnv1a_mix(h, entries);
      const PaperShardCounters& c = counters_[s];
      h = fnv1a_mix(h, c.churn_events);
      h = fnv1a_mix(h, c.departures);
      h = fnv1a_mix(h, c.connections_launched);
      h = fnv1a_mix(h, c.connections_completed);
      h = fnv1a_mix(h, c.connections_failed);
      h = fnv1a_mix(h, c.hops_recorded);
    }
    h = fnv1a_mix(h, static_cast<std::uint64_t>(rec.escrow_milli));
    h = fnv1a_mix(h, static_cast<std::uint64_t>(rec.paid_milli));
    h = fnv1a_mix(h, static_cast<std::uint64_t>(rec.refunded_milli));
    h = fnv1a_mix(h, rec.closed | (rec.abandoned << 16) | (rec.expired << 32) |
                         (rec.prorata << 48));
    h = fnv1a_mix(h, rec.claims_accepted);
    h = fnv1a_mix(h, rec.claims_rejected);
    return h;
  }

  const ScenarioConfig& cfg_;
  sim::ShardedSimulator& engine_;
  std::size_t node_count_;
  std::size_t degree_;
  net::NodeStateSoA state_;
  net::ShardPartition partition_;
  sim::rng::Stream stream_;
  net::LinkModel links_;
  core::HistoryStore history_;  ///< unbounded; written only in refresh_views
  payment::ShardedSettlementPlane plane_;
  std::unique_ptr<net::ShardedProbing> probing_;
  std::vector<PaperShardCounters> counters_;

  // Barrier-merged read views (mutated only in refresh_views). snapshot_ is
  // probing_ as of the last refresh; quality_ scores over it and history_.
  std::vector<std::uint8_t> published_;
  std::unique_ptr<net::ShardedProbing> snapshot_;
  std::unique_ptr<core::EdgeQualityEvaluator> quality_;

  std::vector<std::unique_ptr<ShardBuilder>> builders_;  ///< one per shard

  // Per-shard write buffers (each shard appends only to its own).
  std::vector<std::vector<PendingPath>> history_buf_;
  std::vector<std::vector<SettleOp>> settle_buf_;
  sim::Simulator::LaneId probe_lane_;
  std::unique_ptr<core::RoutingStrategy> strategy_;  ///< good nodes' strategy
  core::StrategyAssignment strategies_;

  std::vector<std::uint64_t> churn_cycle_;
  std::vector<PairState> pairs_;
  std::vector<std::vector<sim::Time>> launch_times_;

  double session_shape_ = 1.0;
  sim::Time refresh_interval_ = 0.0;
  sim::Time half_window_ = 0.0;
  sim::Time next_refresh_ = 0.0;
  sim::Time duration_ = 0.0;
};

}  // namespace

ScenarioResult run_paper_scenario_sharded(const ScenarioConfig& cfg, parallel::ThreadPool* pool) {
  assert(cfg.engine_shards >= 1);
  if (std::string err = cfg.validate(/*sharded_runner=*/true); !err.empty()) {
    throw std::invalid_argument(err);
  }
  sim::ShardedSimulator engine(cfg.engine_shards, cfg.engine_window, pool);
  PaperWorld world(cfg, engine);
  engine.add_barrier_hook([&world](sim::Time boundary) { world.on_barrier(boundary); });
  world.seed_events();
  engine.run_until(world.duration());
  return world.finish();
}

}  // namespace p2panon::harness
