// The transport plane: one message contract, two carriers.
//
// Everything above this layer (path setup, data keepalives, claims,
// settlement) speaks wire::WireMessage. Below it sit two backends:
//
//   * SimTransport (sim_transport.hpp) — routes messages through the
//     discrete-event engine with a fixed RNG draw order, one scheduled
//     event per delivered frame and the caller's continuation captured
//     unwrapped. Messages stay values in-sim; the codec's round-trip
//     property tests are what keep them carriable on the wire.
//
//   * TcpTransport (tcp_transport.hpp) — carries the same frames between
//     real processes over loopback TCP: length-prefixed versioned framing,
//     capped jittered exponential reconnect backoff, per-request read
//     deadlines, heartbeat-based dead-peer detection, graceful Bye on clean
//     shutdown (a crash is silence — exactly the announced/unannounced
//     liveness split the decision layer models).
//
// Both report through the same counter block so ScenarioResult can surface
// transport behaviour uniformly.
#pragma once

#include <cstdint>

namespace p2panon::transport {

/// Frame- and liveness-level counters, shared by both backends. Sim runs
/// leave the TCP-only rows (bytes, reconnects, backoff, heartbeats,
/// deadlines) at zero, and never reject a frame (nothing is decoded
/// in-sim); the rows exist so the reporting plumbing upstream is identical.
struct TransportCounters {
  std::uint64_t frames_sent = 0;       ///< send() calls (before drop decision)
  std::uint64_t frames_delivered = 0;  ///< handed to the link (sent minus dropped)
  std::uint64_t frames_dropped = 0;    ///< fault-injector drops (sim) / send failures (tcp)
  std::uint64_t frames_rejected = 0;   ///< inbound frames the codec refused
  std::uint64_t bytes_sent = 0;        ///< encoded frame bytes
  std::uint64_t reconnects = 0;        ///< successful re-dials after a lost connection
  std::uint64_t backoff_retries = 0;   ///< dial attempts that waited a backoff first
  std::uint64_t heartbeat_timeouts = 0;  ///< peers declared dead by heartbeat silence
  std::uint64_t deadline_expiries = 0;   ///< requests abandoned at the read deadline

  friend bool operator==(const TransportCounters&, const TransportCounters&) = default;
};

}  // namespace p2panon::transport
