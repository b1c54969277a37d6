// Event-driven (asynchronous) connection establishment.
//
// PathBuilder::build forms a path instantaneously — adequate for the
// paper's aggregate metrics, but it cannot capture the *mechanism* of
// churn-induced reformations: in a real deployment the contract propagates
// hop by hop over links with latency, and a forwarder that goes offline
// while the setup (or the reverse-path confirmation) is in flight kills the
// attempt, forcing the initiator to re-form the path.
//
// AsyncConnectionRunner simulates exactly that, and — unlike the original
// omniscient version — detects failures the way a deployment would:
//
//  * every hop (setup payload forward, confirmation backward) is a "leg"
//    with an ack expected from its receiver; the sender arms an ack timer
//    sized from the link's own transfer time, so slow links get patient
//    timers and fast links fail fast;
//  * a receiver that left *gracefully* answers with a NACK (the TCP-RST
//    analog: its former host refuses the connection), failing the attempt
//    after one return flight instead of a full timeout;
//  * a receiver that crashed *silently* answers nothing — the attempt dies
//    only when the ack timer fires, and the timed-out hop's receiver is
//    reported to the optional SuspicionTracker;
//  * every leg, ack and NACK travels through transport::SimTransport, so
//    the fault injector behind it (if any) can drop or delay any of them
//    and lossy links produce spurious timeouts exactly like dead nodes do;
//  * retries use capped exponential backoff with multiplicative jitter
//    drawn from a dedicated child stream, and an optional per-attempt
//    deadline bounds how long one attempt may dangle.
//
// With a lossless transport, no tracker, and no failures, the timing is
// unchanged from the omniscient version: setup completes after exactly one
// forward plus one reverse traversal (acks ride in parallel and gate
// nothing).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/path.hpp"
#include "sim/simulator.hpp"

namespace p2panon::transport {
class SimTransport;
}

namespace p2panon::core {

class SuspicionTracker;

/// Backoff before retry n (1-based) is
/// min(kSetupBackoffBase * 2^(n-1), kSetupBackoffCap) * U[1-j, 1+j],
/// j = kSetupBackoffJitter.
inline constexpr sim::Time kSetupBackoffBase = 2.0;
inline constexpr sim::Time kSetupBackoffCap = 60.0;
inline constexpr double kSetupBackoffJitter = 0.5;
/// A setup gives up after this many attempts (the callback then reports
/// failure).
inline constexpr std::uint32_t kMaxSetupAttempts = 16;
/// Ack patience: kAckTimeoutFactor round trips plus kAckTimeoutSlack.
inline constexpr double kAckTimeoutFactor = 4.0;
inline constexpr sim::Time kAckTimeoutSlack = 1.0;

/// How long a sender waits for the answer to a message whose one-way trip
/// takes `one_way`: a setup leg over one link, or a keepalive over a whole
/// path (DataPhaseRunner).
[[nodiscard]] constexpr sim::Time ack_patience(sim::Time one_way) noexcept {
  return kAckTimeoutFactor * 2.0 * one_way + kAckTimeoutSlack;
}

struct AsyncConfig {
  /// Hard ceiling on one attempt's duration; 0 disables. A safety net for
  /// pathological delay jitter — ack timers catch ordinary failures first.
  sim::Time attempt_deadline = 0.0;
};

struct AsyncResult {
  bool established = false;
  BuiltPath path;                ///< valid when established
  std::uint32_t attempts = 0;    ///< formation attempts (1 = no reformation)
  sim::Time setup_time = 0.0;    ///< from establish() to confirmation arrival
  std::uint32_t ack_timeouts = 0;  ///< legs whose ack timer fired, all attempts
  /// When established: forward-pass arrival time of the setup payload at
  /// path.nodes[i] (index 0 = final attempt's start). Lets callers audit
  /// that no leg was accepted by a node that was dead at handling time.
  std::vector<sim::Time> relay_times;
};

class AsyncConnectionRunner {
 public:
  using Callback = std::function<void(const AsyncResult&)>;

  /// `transport` carries every leg, ack and NACK (and applies its fault
  /// injector's loss/delay, if any); `suspicion` (optional) learns from ack
  /// timeouts and confirmed paths. Both must outlive the runner.
  AsyncConnectionRunner(sim::Simulator& simulator, const net::Overlay& overlay,
                        const PathBuilder& builder, transport::SimTransport& transport,
                        AsyncConfig cfg = {}, SuspicionTracker* suspicion = nullptr) noexcept
      : sim_(simulator),
        overlay_(overlay),
        builder_(builder),
        transport_(transport),
        cfg_(cfg),
        suspicion_(suspicion) {}

  /// Begin establishing connection `conn_index` of `pair` from `initiator`
  /// to `responder`. The callback fires (once) when the reverse-path
  /// confirmation reaches the initiator, or when attempts are exhausted.
  void establish(net::PairId pair, std::uint32_t conn_index, net::NodeId initiator,
                 net::NodeId responder, const Contract& contract,
                 const StrategyAssignment& strategies, const sim::rng::Stream& stream,
                 Callback on_done);

 private:
  /// Per-establishment state, kept alive by the scheduled closures.
  struct Pending;
  /// What to do when a leg's payload arrives — a small POD instead of a
  /// continuation closure, so the scheduled delivery lambda fits
  /// EventCallback's inline buffer (a nested std::function would both
  /// heap-allocate its own capture and blow the budget).
  struct LegDelivery;

  void start_attempt(std::shared_ptr<Pending> p);
  void arrive_setup(std::shared_ptr<Pending> p, net::NodeId holder, net::NodeId pred,
                    std::uint32_t forwarders);
  void arrive_confirm(std::shared_ptr<Pending> p, std::size_t reverse_index);
  /// Send one leg from `from` to `to`: arms the ack timer, hands the
  /// payload to the transport, and classifies the receiver at
  /// arrival (alive → ack + deliver_leg(); crashed → silence; gracefully
  /// offline → NACK).
  void send_leg(std::shared_ptr<Pending> p, net::NodeId from, net::NodeId to, LegDelivery leg);
  void deliver_leg(const std::shared_ptr<Pending>& p, const LegDelivery& leg);
  void send_ack(std::shared_ptr<Pending> p, net::NodeId from, net::NodeId to,
                std::uint64_t tid);
  void send_nack(std::shared_ptr<Pending> p, net::NodeId from, net::NodeId to);
  void fail_attempt(std::shared_ptr<Pending> p);
  void cancel_timers(Pending& p);

  sim::Simulator& sim_;
  const net::Overlay& overlay_;
  const PathBuilder& builder_;
  transport::SimTransport& transport_;
  AsyncConfig cfg_;
  SuspicionTracker* suspicion_;
};

}  // namespace p2panon::core
