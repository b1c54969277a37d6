// Data-phase keepalives and timeout-driven path repair.
//
// Establishing a path is only half the robustness story: the paper's
// availability argument (§2.1) is about paths *staying up* while data
// flows. This layer models the data phase of an established connection as
// a periodic keepalive: the initiator sends a probe down the path, the
// responder echoes it back, and the initiator arms a round-trip timer per
// keepalive. A forwarder that crashed silently is *detected* — the echo
// stops coming and the timer fires — rather than known instantly, which is
// what makes time-to-detect a measurable quantity:
//
//   time_to_detect = detection time - ground-truth failure time
//
// where the ground-truth failure time comes from the overlay's per-node
// AvailabilityTracker (which records even silent crashes). On detection
// the initiator re-forms the path through the AsyncConnectionRunner (a
// reformation in the paper's sense) and resumes keepalives on the new
// path; delivery ratio = echoed keepalives / sent keepalives over the
// phase summarises how much of the data phase the connection was usable.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/async_path.hpp"
#include "sim/simulator.hpp"
#include "sim/types.hpp"

namespace p2panon::core {

/// A connection is given up after this many successful re-formations.
inline constexpr std::uint32_t kMaxReformations = 8;

struct DataPhaseConfig {
  sim::Time duration = sim::minutes(2.0);  ///< length of the data phase
  sim::Time keepalive_interval = 15.0;     ///< gap between keepalive sends
};

struct DataPhaseResult {
  bool completed = false;  ///< survived to the end of the phase
  std::uint64_t keepalives_sent = 0;
  std::uint64_t keepalives_delivered = 0;  ///< echo made it back
  std::uint32_t failures_detected = 0;     ///< keepalive timers that fired
  std::uint32_t reformations = 0;          ///< successful path re-forms
  std::uint32_t reform_setup_attempts = 0;  ///< attempts across all re-forms
  /// One sample per detected failure whose ground-truth cause (an offline
  /// path member) could be identified: detection lag in seconds.
  std::vector<sim::Time> detection_delays;
  /// Paths adopted by re-formation, in order — the caller (harness) feeds
  /// them back into the incentive bookkeeping like any formed path.
  std::vector<BuiltPath> reformed_paths;
};

class DataPhaseRunner {
 public:
  using Callback = std::function<void(const DataPhaseResult&)>;

  /// `transport` carries every keepalive hop (and applies its fault
  /// injector's loss/delay, if any), just like the setup legs.
  /// Re-formation goes through `runner`, so it inherits that runner's
  /// transport and suspicion tracker.
  DataPhaseRunner(sim::Simulator& simulator, const net::Overlay& overlay,
                  AsyncConnectionRunner& runner, transport::SimTransport& transport,
                  DataPhaseConfig cfg = {}) noexcept
      : sim_(simulator), overlay_(overlay), runner_(runner), transport_(transport), cfg_(cfg) {}

  /// Run the data phase of connection `conn_index` of `pair` over the
  /// just-established `path`. The callback fires once, when the phase ends
  /// (completed) or the connection is abandoned (reform failure / budget).
  void run(net::PairId pair, std::uint32_t conn_index, const BuiltPath& path,
           const Contract& contract, const StrategyAssignment& strategies,
           const sim::rng::Stream& stream, Callback on_done);

 private:
  struct Pending;

  void send_keepalive(std::shared_ptr<Pending> p);
  /// One keepalive hop: the probe sits at path.nodes[index] and moves
  /// forward (echo=false) or back toward the initiator (echo=true).
  void relay(std::shared_ptr<Pending> p, std::uint32_t gen, std::uint64_t seq,
             std::size_t index, bool echo);
  void on_timeout(std::shared_ptr<Pending> p, std::uint32_t gen, std::uint64_t seq);
  void reform(std::shared_ptr<Pending> p);
  void finish(std::shared_ptr<Pending> p, bool completed);

  sim::Simulator& sim_;
  const net::Overlay& overlay_;
  AsyncConnectionRunner& runner_;
  transport::SimTransport& transport_;
  DataPhaseConfig cfg_;
};

}  // namespace p2panon::core
