#include "core/data_phase.hpp"

#include <cassert>
#include <utility>

#include "transport/sim_transport.hpp"

namespace p2panon::core {

namespace wire = transport::wire;

struct DataPhaseRunner::Pending {
  net::PairId pair;
  std::uint32_t conn_index;
  BuiltPath path;  ///< current path; replaced by each re-formation
  Contract contract;
  const StrategyAssignment* strategies = nullptr;
  sim::rng::Stream stream{0};
  Callback on_done;

  bool finished = false;
  /// Path generation: bumped when a re-formation starts, so keepalive hops
  /// and timers belonging to the abandoned path become stale no-ops.
  std::uint32_t gen = 0;
  std::uint64_t seq = 0;  ///< keepalive sequence (one outstanding at a time)
  bool awaiting_echo = false;
  sim::EventId timeout_event = sim::kInvalidEventId;
  sim::Time path_formed_at = 0.0;
  sim::Time end_time = 0.0;

  DataPhaseResult result;
};

void DataPhaseRunner::run(net::PairId pair, std::uint32_t conn_index, const BuiltPath& path,
                          const Contract& contract, const StrategyAssignment& strategies,
                          const sim::rng::Stream& stream, Callback on_done) {
  assert(path.nodes.size() >= 2);
  assert(on_done);
  auto p = std::make_shared<Pending>();
  p->pair = pair;
  p->conn_index = conn_index;
  p->path = path;
  p->contract = contract;
  p->strategies = &strategies;
  p->stream = stream;
  p->on_done = std::move(on_done);
  p->path_formed_at = sim_.now();
  p->end_time = sim_.now() + cfg_.duration;
  const std::uint32_t gen = p->gen;
  sim_.schedule_in(cfg_.keepalive_interval, [this, p = std::move(p), gen] {
    if (p->finished || gen != p->gen) return;
    send_keepalive(p);
  });
}

void DataPhaseRunner::send_keepalive(std::shared_ptr<Pending> p) {
  if (p->finished) return;
  if (sim_.now() >= p->end_time) {
    finish(std::move(p), /*completed=*/true);
    return;
  }
  ++p->seq;
  ++p->result.keepalives_sent;
  p->awaiting_echo = true;
  const sim::Time patience = ack_patience(overlay_.links().path_latency(p->path.nodes));
  const std::uint32_t gen = p->gen;
  const std::uint64_t seq = p->seq;
  p->timeout_event = sim_.schedule_in(patience, [this, p, gen, seq] {
    if (p->finished || gen != p->gen || seq != p->seq || !p->awaiting_echo) return;
    on_timeout(p, gen, seq);
  });
  relay(std::move(p), gen, seq, /*index=*/0, /*echo=*/false);
}

void DataPhaseRunner::relay(std::shared_ptr<Pending> p, std::uint32_t gen, std::uint64_t seq,
                            std::size_t index, bool echo) {
  if (p->finished || gen != p->gen || seq != p->seq) return;
  const auto& nodes = p->path.nodes;
  const std::size_t to_index = echo ? index - 1 : index + 1;
  const net::NodeId from = nodes[index];
  const net::NodeId to = nodes[to_index];
  auto deliver = [this, p, gen, seq, to_index, echo] {
    if (p->finished || gen != p->gen || seq != p->seq) return;
    if (to_index == 0) {
      // Echo made it back to the initiator: the path is alive.
      ++p->result.keepalives_delivered;
      p->awaiting_echo = false;
      sim_.cancel(p->timeout_event);
      p->timeout_event = sim::kInvalidEventId;
      sim_.schedule_in(cfg_.keepalive_interval, [this, p, gen] {
        if (p->finished || gen != p->gen) return;
        send_keepalive(p);
      });
      return;
    }
    // A dead forwarder (crashed or departed) silently swallows the probe;
    // the initiator learns only from its timer.
    if (!overlay_.is_online(p->path.nodes[to_index])) return;
    const bool at_responder = !echo && to_index == p->path.nodes.size() - 1;
    relay(p, gen, seq, to_index, at_responder ? true : echo);
  };
  const wire::DataMsg msg{p->pair,
                          p->conn_index,
                          gen,
                          seq,
                          static_cast<std::uint32_t>(to_index),
                          static_cast<std::uint8_t>(echo)};
  (void)transport_.send(from, to, msg, std::move(deliver));  // false: timer covers it
}

void DataPhaseRunner::on_timeout(std::shared_ptr<Pending> p, std::uint32_t /*gen*/,
                                 std::uint64_t /*seq*/) {
  ++p->result.failures_detected;
  p->awaiting_echo = false;
  p->timeout_event = sim::kInvalidEventId;
  // Ground-truth detection lag: the earliest downtime start (from the
  // omniscient availability tracker) among path members that are dead right
  // now and went down after this path was adopted. Losses alone (no dead
  // member) yield a detection with no delay sample.
  sim::Time failed_at = -1.0;
  for (std::size_t i = 1; i < p->path.nodes.size(); ++i) {
    const net::NodeId v = p->path.nodes[i];
    if (overlay_.is_online(v)) continue;
    const sim::Time left = overlay_.state().tracker[v].last_leave();
    if (left < p->path_formed_at) continue;
    if (failed_at < 0.0 || left < failed_at) failed_at = left;
  }
  if (failed_at >= 0.0) p->result.detection_delays.push_back(sim_.now() - failed_at);
  reform(std::move(p));
}

void DataPhaseRunner::reform(std::shared_ptr<Pending> p) {
  if (p->result.reformations >= kMaxReformations) {
    finish(std::move(p), /*completed=*/false);
    return;
  }
  ++p->gen;
  const std::uint32_t gen = p->gen;
  const std::uint32_t nth = p->result.reformations + 1;
  const net::NodeId initiator = p->path.nodes.front();
  const net::NodeId responder = p->path.nodes.back();
  runner_.establish(
      p->pair, p->conn_index, initiator, responder, p->contract, *p->strategies,
      p->stream.child("reform", nth), [this, p, gen](const AsyncResult& r) {
        if (p->finished || gen != p->gen) return;
        p->result.reform_setup_attempts += r.attempts;
        if (!r.established) {
          finish(p, /*completed=*/false);
          return;
        }
        ++p->result.reformations;
        p->path = r.path;
        p->path_formed_at = sim_.now();
        p->result.reformed_paths.push_back(r.path);
        if (sim_.now() >= p->end_time) {
          finish(p, /*completed=*/true);
          return;
        }
        sim_.schedule_in(cfg_.keepalive_interval, [this, p, gen] {
          if (p->finished || gen != p->gen) return;
          send_keepalive(p);
        });
      });
}

void DataPhaseRunner::finish(std::shared_ptr<Pending> p, bool completed) {
  if (p->finished) return;
  p->finished = true;
  if (p->timeout_event != sim::kInvalidEventId) {
    sim_.cancel(p->timeout_event);
    p->timeout_event = sim::kInvalidEventId;
  }
  p->result.completed = completed;
  p->on_done(p->result);
}

}  // namespace p2panon::core
