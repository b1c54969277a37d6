// SimTransport: the discrete-event backend of the transport plane, and the
// only carrier of in-sim protocol traffic (setup legs, acks, nacks,
// keepalives, and bank-fault claim/close messages).
//
// send() is shaped so a run's draws and events are a pure function of the
// protocol, not of the carrier:
//
//   1. fault drop draw FIRST, extra-delay draw SECOND (fixed RNG order);
//   2. one schedule_in() per surviving frame, with the caller's
//      continuation scheduled *unwrapped* — the event capture is exactly
//      the caller's lambda, so the engine's inline-callback buffer (and its
//      pinned zero heap-fallback count) is untouched;
//   3. no additional events, draws, or clock reads anywhere.
//
// Messages are wire::WireMessage values — the same set TcpTransport frames
// between processes — but in-sim they are never serialised: that the codec
// carries every message faithfully is the codec's own contract, pinned by
// the round-trip property tests in tests/transport/test_wire_codec.cpp.
#pragma once

#include <functional>
#include <utility>

#include "fault/fault.hpp"
#include "net/overlay.hpp"
#include "sim/simulator.hpp"
#include "transport/transport.hpp"
#include "transport/wire.hpp"

namespace p2panon::transport {

class SimTransport {
 public:
  /// `faults` (optional) drops and delays frames; null is a lossless
  /// network whose flight time is the link's transfer time.
  SimTransport(sim::Simulator& sim, const net::Overlay& overlay,
               fault::FaultInjector* faults = nullptr) noexcept
      : sim_(sim), overlay_(overlay), faults_(faults) {}

  SimTransport(const SimTransport&) = delete;
  SimTransport& operator=(const SimTransport&) = delete;

  /// Deliver `msg` from -> to through the event engine. Returns false when
  /// the fault injector ate the frame (the caller's timeout machinery
  /// handles the loss). `deliver` is scheduled verbatim after the link's
  /// flight time.
  template <typename F>
  bool send(net::NodeId from, net::NodeId to, const wire::WireMessage& /*msg*/, F&& deliver) {
    ++counters_.frames_sent;
    if (faults_ != nullptr && faults_->drop_message(from, to)) {
      ++counters_.frames_dropped;
      return false;
    }
    sim::Time flight = overlay_.links().transfer_time(from, to);
    if (faults_ != nullptr) flight += faults_->extra_delay(from, to);
    ++counters_.frames_delivered;
    sim_.schedule_in(flight, std::forward<F>(deliver));
    return true;
  }

  /// The settlement plane: messages to the bank dispatch synchronously
  /// inside the already-scheduled event that posts them (adding a hop here
  /// would perturb event ordering).
  void set_bank_handler(std::function<void(const wire::WireMessage&)> handler) {
    bank_handler_ = std::move(handler);
  }

  void post_to_bank(const wire::WireMessage& msg) {
    ++counters_.frames_sent;
    ++counters_.frames_delivered;
    if (bank_handler_) bank_handler_(msg);
  }

  [[nodiscard]] const TransportCounters& counters() const noexcept { return counters_; }

 private:
  sim::Simulator& sim_;
  const net::Overlay& overlay_;
  fault::FaultInjector* faults_;
  std::function<void(const wire::WireMessage&)> bank_handler_;
  TransportCounters counters_;
};

}  // namespace p2panon::transport
