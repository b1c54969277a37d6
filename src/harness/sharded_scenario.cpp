#include "harness/sharded_scenario.hpp"

#include <cassert>

#include "core/shard_quality.hpp"
#include "harness/checkpoint.hpp"
#include "net/sharded_probing.hpp"
#include "net/soa.hpp"
#include "sim/rng.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"

namespace p2panon::harness {

namespace {

using net::NodeId;

/// The whole sharded world: SoA overlay state, shard-scoped estimators,
/// per-shard counters, and the event handlers. Bound either to a
/// ShardedSimulator (windowed run) or to a plain Simulator (the serial
/// oracle) — the handlers are identical, which is the point.
class World {
 public:
  World(const ShardedScenarioConfig& cfg, sim::ShardedSimulator* sharded,
        sim::Simulator* serial)
      : cfg_(cfg),
        sharded_(sharded),
        serial_(serial),
        partition_(cfg.node_count, sharded != nullptr ? sharded->shard_count() : 1),
        stream_(cfg.seed),
        counters_(partition_.shard_count()) {
    assert(cfg.node_count >= 2);
    assert(cfg.degree >= 1 && cfg.degree < cfg.node_count);
    state_.resize(cfg.node_count, cfg.degree);
    // Built after the columns exist — both snapshot state_.size()/degree.
    probing_ = std::make_unique<net::ShardedProbing>(state_, partition_, cfg.probe_period,
                                                     stream_.child("probing"));

    net::sample_neighbors(state_, stream_.child("neighbors"));

    quality_ = std::make_unique<core::ShardedEdgeQuality>(state_, partition_, *probing_,
                                                          cfg.weights);
    published_.assign(cfg.node_count, 0);
    churn_cycle_.assign(cfg.node_count, 0);
    conn_count_.assign(cfg.node_count, 0);
    conn_loop_started_.assign(cfg.node_count, 0);
    pending_active_.assign(cfg.node_count, 0);
    pending_conn_.assign(cfg.node_count, 0);
    pending_slot_.assign(cfg.node_count, 0);
    pending_timer_.assign(cfg.node_count, sim::kInvalidEventId);
    // Each fixed-delay timer kind gets a FIFO lane: probe ticks, local hop
    // and ack messages, ack timers.
    probe_lane_ = open_lane();
    hop_lane_ = open_lane();
    ack_lane_ = open_lane();
  }

  /// Schedule every node's initial join; uniform over [0, join_window).
  void seed_events() {
    for (NodeId id = 0; id < cfg_.node_count; ++id) {
      const sim::Time at = stream_.child("join", id).uniform(0.0, cfg_.join_window);
      const std::uint32_t s = partition_.shard_of(id);
      post(s, s, at, [this, id] { do_join(id); });
    }
  }

  /// Serial barrier work: publish the liveness snapshot cross-shard reads
  /// use next window, and settle the claims every shard accrued.
  void on_barrier(sim::Time /*boundary*/) {
    for (NodeId id = 0; id < cfg_.node_count; ++id) {
      published_[id] = state_.appears_online(id) ? 1 : 0;
    }
    settle_claims();
  }

  [[nodiscard]] ShardedScenarioResult finish() {
    settle_claims();  // residual claims from the tail of the run

    ShardedScenarioResult r;
    r.per_shard.assign(counters_.begin(), counters_.end());
    for (const ShardCounters& c : counters_) {
      r.connections_launched += c.connections_launched;
      r.connections_acked += c.connections_acked;
      r.ack_timeouts += c.ack_timeouts;
      r.no_candidate += c.no_candidate;
      r.hops_forwarded += c.hops_forwarded;
      r.churn_events += c.churn_events;
      r.departures += c.departures;
      r.claims_settled += c.claims_settled;
    }
    r.probes = probing_->probes_performed();
    r.settlement_batches = settlement_batches_;
    if (sharded_ != nullptr) {
      r.cross_shard_messages = sharded_->stats().cross_shard_messages;
      r.window_barriers = sharded_->stats().window_barriers;
      r.engine = sharded_->aggregate_queue_stats();
    } else {
      r.engine = serial_->queue_stats();
    }
    r.digest = digest();
    return r;
  }

 private:
  [[nodiscard]] sim::Simulator& local_sim(std::uint32_t s) {
    return sharded_ != nullptr ? sharded_->shard(s) : *serial_;
  }

  void post(std::uint32_t src, std::uint32_t dst, sim::Time at, sim::EventFn fn) {
    if (sharded_ != nullptr) {
      sharded_->post(src, dst, at, std::move(fn));
    } else {
      serial_->schedule_at(at, std::move(fn));
    }
  }

  [[nodiscard]] sim::Simulator::LaneId open_lane() {
    return sharded_ != nullptr ? sharded_->add_lane() : serial_->add_lane();
  }

  /// A hop or ack message from shard `src`, delivered hop_latency from now:
  /// through the hop lane when it stays on `src`, through the mailbox
  /// otherwise.
  void post_hop(std::uint32_t src, std::uint32_t dst, sim::EventFn fn) {
    sim::Simulator& from = local_sim(src);
    if (sharded_ != nullptr && dst != src) {
      sharded_->post(src, dst, from.now() + cfg_.hop_latency, std::move(fn));
    } else {
      from.schedule_in(hop_lane_, cfg_.hop_latency, std::move(fn));
    }
  }

  void post_probe(std::uint32_t s, NodeId id) {
    local_sim(s).schedule_in(probe_lane_, cfg_.probe_period, [this, id] { probe_tick(id); });
  }

  [[nodiscard]] std::uint64_t key_of(NodeId id, std::uint64_t n) const noexcept {
    return (static_cast<std::uint64_t>(id) << 32) | n;
  }

  // ---- churn ------------------------------------------------------------

  void do_join(NodeId id) {
    if (state_.departed[id] != 0 || state_.online[id] != 0) return;
    const std::uint32_t s = partition_.shard_of(id);
    const sim::Time now = local_sim(s).now();
    state_.online[id] = 1;
    state_.tracker[id].on_join(now);
    ++counters_[s].churn_events;

    if (probing_->wake(id)) post_probe(s, id);
    if (conn_loop_started_[id] == 0) {
      conn_loop_started_[id] = 1;
      const double rate = 1.0 / cfg_.connection_interval_mean;
      const sim::Time gap = stream_.child("conn-gap", key_of(id, 0)).exponential(rate);
      post(s, s, now + gap, [this, id] { conn_tick(id); });
    }

    const std::uint64_t cycle = churn_cycle_[id];
    const sim::Time session =
        stream_.child("session", key_of(id, cycle)).exponential(1.0 / cfg_.session_mean);
    post(s, s, now + session, [this, id, cycle] { do_leave(id, cycle); });
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
    if (stream_.child("depart", key_of(id, next_cycle)).next_double() <
        cfg_.departure_probability) {
      state_.departed[id] = 1;
      ++counters_[s].departures;
      return;
    }
    const sim::Time gap =
        stream_.child("gap", key_of(id, next_cycle)).exponential(1.0 / cfg_.offline_gap_mean);
    post(s, s, now + gap, [this, id] { do_join(id); });
  }

  // ---- probing ----------------------------------------------------------

  void probe_tick(NodeId id) {
    if (!probing_->tick(id, published_)) return;
    post_probe(partition_.shard_of(id), id);
  }

  // ---- traffic ----------------------------------------------------------

  void conn_tick(NodeId id) {
    if (state_.departed[id] != 0) return;  // loop ends with the node
    const std::uint32_t s = partition_.shard_of(id);
    const sim::Time now = local_sim(s).now();

    if (state_.online[id] != 0 && pending_active_[id] == 0) {
      const std::size_t slot = quality_->pick_best(id, published_);
      if (slot >= cfg_.degree) {
        ++counters_[s].no_candidate;
      } else {
        launch_connection(id, slot, s);
      }
    }

    ++conn_count_[id];
    const double rate = 1.0 / cfg_.connection_interval_mean;
    const sim::Time gap =
        stream_.child("conn-gap", key_of(id, conn_count_[id])).exponential(rate);
    post(s, s, now + gap, [this, id] { conn_tick(id); });
  }

  void launch_connection(NodeId id, std::size_t slot, std::uint32_t s) {
    ++counters_[s].connections_launched;
    const std::uint64_t conn = key_of(id, conn_count_[id]);
    pending_active_[id] = 1;
    pending_conn_[id] = conn;
    pending_slot_[id] = static_cast<std::uint32_t>(slot);
    quality_->record_attempt(id, slot);
    // The ack timer: cancelled on ack arrival — the cancel-heavy pattern.
    pending_timer_[id] = local_sim(s).schedule_in(
        ack_lane_, cfg_.ack_timeout, [this, id, conn] { on_ack_timeout(id, conn); });
    const NodeId next = state_.neighbors_of(id)[slot];
    const std::uint32_t hops_left = cfg_.path_hops > 0 ? cfg_.path_hops - 1 : 0;
    post_hop(s, partition_.shard_of(next),
             [this, id, conn, next, hops_left] { on_hop(id, conn, next, hops_left); });
  }

  void on_hop(NodeId initiator, std::uint64_t conn, NodeId at_node, std::uint32_t hops_left) {
    if (state_.online[at_node] == 0) return;  // dropped; the timer will fire
    const std::uint32_t s = partition_.shard_of(at_node);
    ++counters_[s].hops_forwarded;
    ++counters_[s].claims_pending;  // the forwarding claim, settled at a barrier

    if (hops_left == 0) {
      post_hop(s, partition_.shard_of(initiator),
               [this, initiator, conn] { on_ack(initiator, conn); });
      return;
    }
    const std::size_t slot = quality_->pick_best(at_node, published_);
    if (slot >= cfg_.degree) return;  // stuck mid-path; the timer will fire
    quality_->record_attempt(at_node, slot);
    const NodeId next = state_.neighbors_of(at_node)[slot];
    post_hop(s, partition_.shard_of(next), [this, initiator, conn, next, hops_left] {
      on_hop(initiator, conn, next, hops_left - 1);
    });
  }

  void on_ack(NodeId id, std::uint64_t conn) {
    if (pending_active_[id] == 0 || pending_conn_[id] != conn) return;
    const std::uint32_t s = partition_.shard_of(id);
    pending_active_[id] = 0;
    local_sim(s).cancel(pending_timer_[id]);
    ++counters_[s].connections_acked;
    quality_->record_success(id, pending_slot_[id]);
  }

  void on_ack_timeout(NodeId id, std::uint64_t conn) {
    if (pending_active_[id] == 0 || pending_conn_[id] != conn) return;
    const std::uint32_t s = partition_.shard_of(id);
    pending_active_[id] = 0;
    ++counters_[s].ack_timeouts;
  }

  // ---- settlement & fingerprint -----------------------------------------

  void settle_claims() {
    for (ShardCounters& c : counters_) {
      c.claims_settled += c.claims_pending;
      c.claims_pending = 0;
    }
    ++settlement_batches_;
  }

  [[nodiscard]] std::uint64_t digest() const {
    std::uint64_t h = fnv1a_init();
    for (const ShardCounters& c : counters_) {
      h = fnv1a_mix(h, c.connections_launched);
      h = fnv1a_mix(h, c.connections_acked);
      h = fnv1a_mix(h, c.ack_timeouts);
      h = fnv1a_mix(h, c.no_candidate);
      h = fnv1a_mix(h, c.hops_forwarded);
      h = fnv1a_mix(h, c.churn_events);
      h = fnv1a_mix(h, c.departures);
      h = fnv1a_mix(h, c.claims_settled);
    }
    for (NodeId id = 0; id < cfg_.node_count; ++id) {
      h = fnv1a_mix(h, state_.online[id] |
                           (static_cast<std::uint64_t>(state_.departed[id]) << 8) |
                           (static_cast<std::uint64_t>(churn_cycle_[id]) << 16));
      h = fnv1a_double(h, state_.tracker[id].availability(cfg_.duration));
      h = fnv1a_mix(h, probing_->epoch(id));
      for (std::size_t slot = 0; slot < cfg_.degree; ++slot) {
        h = fnv1a_double(h, probing_->observed_session_time(id, slot));
        h = fnv1a_mix(h, quality_->attempts(id, slot) |
                             (static_cast<std::uint64_t>(quality_->successes(id, slot)) << 32));
      }
    }
    return h;
  }

  ShardedScenarioConfig cfg_;
  sim::ShardedSimulator* sharded_;
  sim::Simulator* serial_;
  net::NodeStateSoA state_;
  net::ShardPartition partition_;
  sim::rng::Stream stream_;
  std::unique_ptr<net::ShardedProbing> probing_;
  std::unique_ptr<core::ShardedEdgeQuality> quality_;
  std::vector<ShardCounters> counters_;
  std::vector<std::uint8_t> published_;

  std::vector<std::uint64_t> churn_cycle_;
  std::vector<std::uint32_t> conn_count_;
  std::vector<std::uint8_t> conn_loop_started_;
  std::vector<std::uint8_t> pending_active_;
  std::vector<std::uint64_t> pending_conn_;
  std::vector<std::uint32_t> pending_slot_;
  std::vector<sim::EventId> pending_timer_;
  sim::Simulator::LaneId probe_lane_ = 0;
  sim::Simulator::LaneId hop_lane_ = 0;
  sim::Simulator::LaneId ack_lane_ = 0;
  std::uint64_t settlement_batches_ = 0;
};

}  // namespace

ShardedScenarioResult run_sharded_scenario(const ShardedScenarioConfig& cfg,
                                           parallel::ThreadPool* pool) {
  sim::ShardedSimulator engine(cfg.shard_count, cfg.window, pool);
  World world(cfg, &engine, nullptr);
  engine.add_barrier_hook([&world](sim::Time boundary) { world.on_barrier(boundary); });
  world.seed_events();
  engine.run_until(cfg.duration);
  return world.finish();
}

ShardedScenarioResult run_serial_oracle(const ShardedScenarioConfig& cfg) {
  sim::Simulator engine;
  World world(cfg, nullptr, &engine);
  world.seed_events();
  engine.run_until(cfg.duration);
  return world.finish();
}

}  // namespace p2panon::harness
