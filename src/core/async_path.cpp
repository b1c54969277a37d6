#include "core/async_path.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "core/suspicion.hpp"
#include "transport/sim_transport.hpp"

namespace p2panon::core {

namespace wire = transport::wire;

struct AsyncConnectionRunner::Pending {
  net::PairId pair;
  std::uint32_t conn_index;
  net::NodeId initiator;
  net::NodeId responder;
  Contract contract;
  const StrategyAssignment* strategies = nullptr;
  sim::rng::Stream stream{0};
  Callback on_done;

  sim::Time started = 0.0;
  std::uint32_t attempts = 0;
  std::uint32_t ack_timeouts = 0;
  bool finished = false;
  /// True while an attempt is in flight; cleared by the *first* failure
  /// signal (NACK, ack timeout, deadline), making them race-free: whichever
  /// fires first schedules the retry, the rest become stale no-ops.
  bool attempt_active = false;

  // Per-attempt state.
  BuiltPath partial;
  std::vector<sim::Time> relay_times;
  sim::rng::Stream coin_stream{0};
  sim::rng::Stream pick_stream{0};
  sim::rng::Stream backoff_stream{0};
  /// Identity of the newest leg; stale acks/timeouts compare against it.
  std::uint64_t current_tid = 0;
  sim::EventId ack_timeout_event = sim::kInvalidEventId;
  sim::EventId deadline_event = sim::kInvalidEventId;
};

struct AsyncConnectionRunner::LegDelivery {
  enum class Kind : std::uint8_t {
    kSetup,      ///< setup payload hops forward: arrive_setup(next, holder, forwarders)
    kResponder,  ///< setup payload reaches the responder: confirmation turns around
    kConfirm,    ///< confirmation retraces one hop: arrive_confirm(index - 1)
  };
  Kind kind;
  net::NodeId holder = net::kInvalidNode;  ///< kSetup: the hop's sender (next's predecessor)
  net::NodeId next = net::kInvalidNode;    ///< kSetup: the receiving forwarder
  std::uint32_t forwarders = 0;            ///< kSetup: forwarder count including `next`
  std::uint32_t index = 0;                 ///< kResponder/kConfirm: position in partial.nodes
};

void AsyncConnectionRunner::establish(net::PairId pair, std::uint32_t conn_index,
                                      net::NodeId initiator, net::NodeId responder,
                                      const Contract& contract,
                                      const StrategyAssignment& strategies,
                                      const sim::rng::Stream& stream, Callback on_done) {
  assert(initiator != responder);
  assert(on_done);
  auto p = std::make_shared<Pending>();
  p->pair = pair;
  p->conn_index = conn_index;
  p->initiator = initiator;
  p->responder = responder;
  p->contract = contract;
  p->strategies = &strategies;
  p->stream = stream;
  p->backoff_stream =
      stream.child("backoff", (static_cast<std::uint64_t>(pair) << 20) | conn_index);
  p->on_done = std::move(on_done);
  p->started = sim_.now();
  start_attempt(std::move(p));
}

void AsyncConnectionRunner::start_attempt(std::shared_ptr<Pending> p) {
  if (p->finished) return;
  if (p->attempts >= kMaxSetupAttempts) {
    p->finished = true;
    AsyncResult result;
    result.established = false;
    result.attempts = p->attempts;
    result.setup_time = sim_.now() - p->started;
    result.ack_timeouts = p->ack_timeouts;
    p->on_done(result);
    return;
  }
  ++p->attempts;
  p->attempt_active = true;
  p->partial = BuiltPath{};
  p->partial.nodes.push_back(p->initiator);
  p->relay_times.clear();
  p->relay_times.push_back(sim_.now());
  p->coin_stream = p->stream.child("termination", (static_cast<std::uint64_t>(p->conn_index)
                                                   << 16) |
                                                      p->attempts);
  p->pick_stream = p->stream.child("picks", (static_cast<std::uint64_t>(p->conn_index) << 16) |
                                                p->attempts);
  if (cfg_.attempt_deadline > 0.0) {
    const std::uint32_t attempt = p->attempts;
    p->deadline_event = sim_.schedule_in(cfg_.attempt_deadline, [this, p, attempt] {
      if (p->finished || !p->attempt_active || attempt != p->attempts) return;
      fail_attempt(p);
    });
  }
  arrive_setup(std::move(p), net::kInvalidNode, net::kInvalidNode, 0);
}

void AsyncConnectionRunner::arrive_setup(std::shared_ptr<Pending> p, net::NodeId holder,
                                         net::NodeId pred, std::uint32_t forwarders) {
  if (p->finished || !p->attempt_active) return;
  const bool first_hop = holder == net::kInvalidNode;
  if (first_hop) holder = p->initiator;

  RoutingContext ctx{overlay_.state(), overlay_.links(), builder_.quality_evaluator(),
                     p->contract, p->pair, p->conn_index, p->responder, builder_.resources()};
  const PathBuilder::HopOutcome hop = builder_.next_hop(
      ctx, holder, pred, first_hop, forwarders, *p->strategies, p->coin_stream,
      p->pick_stream);
  p->partial.declined += hop.declined;
  p->partial.edge_qualities.push_back(hop.edge_quality);
  p->partial.nodes.push_back(hop.next);

  if (hop.delivered) {
    // Payload reaches the responder; the confirmation then retraces the
    // path in reverse.
    LegDelivery leg{LegDelivery::Kind::kResponder};
    leg.index = static_cast<std::uint32_t>(p->partial.nodes.size() - 1);
    send_leg(p, holder, hop.next, leg);
    return;
  }
  LegDelivery leg{LegDelivery::Kind::kSetup};
  leg.holder = holder;
  leg.next = hop.next;
  leg.forwarders = forwarders + 1;
  send_leg(p, holder, hop.next, leg);
}

void AsyncConnectionRunner::arrive_confirm(std::shared_ptr<Pending> p,
                                           std::size_t reverse_index) {
  if (p->finished || !p->attempt_active) return;
  // The confirmation currently sits at nodes[reverse_index]; index 0 is the
  // initiator — arrival there completes the connection.
  if (reverse_index == 0) {
    p->finished = true;
    p->attempt_active = false;
    cancel_timers(*p);
    if (suspicion_ != nullptr) {
      // A confirmed end-to-end path vouches for every intermediate hop.
      for (std::size_t i = 1; i + 1 < p->partial.nodes.size(); ++i) {
        suspicion_->record_success(p->partial.nodes[i]);
      }
    }
    AsyncResult result;
    result.established = true;
    result.path = p->partial;
    result.attempts = p->attempts;
    result.setup_time = sim_.now() - p->started;
    result.ack_timeouts = p->ack_timeouts;
    result.relay_times = p->relay_times;
    p->on_done(result);
    return;
  }
  const net::NodeId at = p->partial.nodes[reverse_index];
  const net::NodeId towards = p->partial.nodes[reverse_index - 1];
  LegDelivery leg{LegDelivery::Kind::kConfirm};
  leg.index = static_cast<std::uint32_t>(reverse_index);
  send_leg(p, at, towards, leg);
}

void AsyncConnectionRunner::deliver_leg(const std::shared_ptr<Pending>& p,
                                        const LegDelivery& leg) {
  switch (leg.kind) {
    case LegDelivery::Kind::kSetup:
      p->relay_times.push_back(sim_.now());
      arrive_setup(p, leg.next, leg.holder, leg.forwarders);
      break;
    case LegDelivery::Kind::kResponder:
      p->relay_times.push_back(sim_.now());
      arrive_confirm(p, leg.index);
      break;
    case LegDelivery::Kind::kConfirm:
      arrive_confirm(p, leg.index - 1);
      break;
  }
}

void AsyncConnectionRunner::send_leg(std::shared_ptr<Pending> p, net::NodeId from,
                                     net::NodeId to, LegDelivery leg) {
  const std::uint32_t attempt = p->attempts;
  const std::uint64_t tid = ++p->current_tid;
  // The sender's patience scales with its own link: a leg's ack needs one
  // round trip over it.
  const sim::Time patience = ack_patience(overlay_.links().transfer_time(from, to));
  p->ack_timeout_event = sim_.schedule_in(patience, [this, p, attempt, tid, to] {
    if (p->finished || !p->attempt_active || attempt != p->attempts) return;
    if (tid != p->current_tid) return;  // a newer leg superseded this timer
    ++p->ack_timeouts;
    if (suspicion_ != nullptr) suspicion_->record_timeout(to);
    fail_attempt(p);
  });

  auto deliver = [this, p, attempt, tid, from, to, leg] {
    if (p->finished || !p->attempt_active || attempt != p->attempts) return;
    if (overlay_.is_online(to)) {
      send_ack(p, to, from, tid);
      deliver_leg(p, leg);
      return;
    }
    // Crashed hosts are silent (the sender's timer must expire); gracefully
    // departed ones refuse — their host answers with the RST analog.
    if (!overlay_.appears_online(to)) send_nack(p, to, from);
  };
  // A false return means the injector ate the frame; the ack timer armed
  // above covers it either way.
  const wire::LegMsg msg{p->pair,    p->conn_index,  attempt,  tid,
                         static_cast<std::uint8_t>(leg.kind), leg.holder,
                         leg.next,   leg.forwarders, leg.index};
  (void)transport_.send(from, to, msg, std::move(deliver));
}

void AsyncConnectionRunner::send_ack(std::shared_ptr<Pending> p, net::NodeId from,
                                     net::NodeId to, std::uint64_t tid) {
  auto deliver = [this, p, tid] {
    if (p->finished || tid != p->current_tid) return;  // stale ack
    sim_.cancel(p->ack_timeout_event);
  };
  (void)transport_.send(from, to, wire::AckMsg{p->pair, p->conn_index, tid},
                        std::move(deliver));
}

void AsyncConnectionRunner::send_nack(std::shared_ptr<Pending> p, net::NodeId from,
                                      net::NodeId to) {
  const std::uint32_t attempt = p->attempts;
  auto deliver = [this, p, attempt] {
    if (p->finished || !p->attempt_active || attempt != p->attempts) return;
    fail_attempt(p);
  };
  (void)transport_.send(from, to, wire::NackMsg{p->pair, p->conn_index, attempt},
                        std::move(deliver));  // false: timer covers it
}

void AsyncConnectionRunner::fail_attempt(std::shared_ptr<Pending> p) {
  if (p->finished || !p->attempt_active) return;
  p->attempt_active = false;
  cancel_timers(*p);
  // Capped exponential backoff: base * 2^(n-1) is exact in binary floating
  // point (ldexp), so the schedule is bitwise reproducible.
  const int exponent = static_cast<int>(std::min<std::uint32_t>(p->attempts, 62u)) - 1;
  const sim::Time capped = std::min(std::ldexp(kSetupBackoffBase, exponent), kSetupBackoffCap);
  const double jitter =
      p->backoff_stream.uniform(1.0 - kSetupBackoffJitter, 1.0 + kSetupBackoffJitter);
  sim_.schedule_in(capped * jitter,
                   [this, p = std::move(p)]() mutable { start_attempt(std::move(p)); });
}

void AsyncConnectionRunner::cancel_timers(Pending& p) {
  if (p.ack_timeout_event != sim::kInvalidEventId) {
    sim_.cancel(p.ack_timeout_event);
    p.ack_timeout_event = sim::kInvalidEventId;
  }
  if (p.deadline_event != sim::kInvalidEventId) {
    sim_.cancel(p.deadline_event);
    p.deadline_event = sim::kInvalidEventId;
  }
}

}  // namespace p2panon::core
