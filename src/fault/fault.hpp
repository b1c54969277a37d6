// Deterministic fault injection for the overlay's message and liveness
// planes (robustness PR; see DESIGN.md "Fault model").
//
// Every fault draw comes from a seeded sim::rng::Stream child, so a faulty
// run is exactly as reproducible as a clean one: same seed, same drops,
// same crashes, same lies — across any replicate-pool size. A
// default-constructed FaultConfig is all-off and the injector is then never
// even constructed by the harness, so the existing result corpus stays
// bitwise unchanged.
//
// Fault taxonomy:
//  * link loss         — each message independently dropped with p = link_loss;
//  * delay jitter      — per-message extra latency U[0, delay_jitter * base];
//  * silent crashes    — per-node Poisson hazard; a crashed node goes down
//                        WITHOUT any churn-observer notification (unlike a
//                        graceful leave), so failure must be *detected* by
//                        timeouts, not learned from the simulator;
//  * probe lies        — a live target is reported dead with
//                        p = probe_false_negative (false negatives only:
//                        a dead node never answers a probe).
#pragma once

#include <cstdint>
#include <vector>

#include "net/overlay.hpp"
#include "sim/rng.hpp"
#include "sim/types.hpp"

namespace p2panon::fault {

/// Bank-facing faults for the settlement lifecycle (robustness PR 5). These
/// strike the *payment* plane: the messages between nodes and the bank, and
/// the liveness of the parties between escrow funding and close. Any enabled
/// knob (or `lifecycle = true`) switches the harness from the instantaneous
/// post-run settle to the event-driven, deadline-guarded settlement phase;
/// all-off stays bitwise identical to the pre-lifecycle pipeline. Every draw
/// comes from a dedicated seeded stream child ("bank-faults"), so a chaos
/// schedule replays exactly.
struct BankFaultConfig {
  /// Force the deadline-driven settlement lifecycle even with every fault
  /// probability at zero (the clean-path lifecycle regression tests).
  bool lifecycle = false;
  double claim_loss = 0.0;        ///< P(a forwarder's claim submission is lost)
  sim::Time claim_delay_mean = 0.0;  ///< exponential extra delay per claim
  double initiator_crash = 0.0;   ///< P(initiator dies between funding and close)
  double forwarder_crash = 0.0;   ///< P(a forwarder dies before claiming anything)
  /// Claim deadline after open; at deadline the bank abandons (claims
  /// pending, pro-rata) or expires (zero claims, full refund) on its own.
  sim::Time claim_deadline = sim::minutes(30.0);
  /// The surviving initiator sends close() this long after opening.
  sim::Time close_after = sim::minutes(10.0);
  /// Honest claim submissions spread uniformly over this window after open.
  sim::Time claim_spread = sim::minutes(5.0);

  [[nodiscard]] bool enabled() const noexcept {
    return lifecycle || claim_loss > 0.0 || claim_delay_mean > 0.0 ||
           initiator_crash > 0.0 || forwarder_crash > 0.0;
  }
};

struct FaultConfig {
  double link_loss = 0.0;            ///< per-message drop probability
  double delay_jitter = 0.0;         ///< extra delay up to this fraction of base
  double crash_rate_per_hour = 0.0;  ///< per-node silent-crash hazard rate
  sim::Time crash_recovery_mean = sim::minutes(10.0);  ///< 0 = crashed for good
  double probe_false_negative = 0.0;  ///< P(live target reported dead)
  BankFaultConfig bank;               ///< settlement-lifecycle fault plane

  /// True when any *message/liveness* fault source is active; the harness
  /// switches to the timeout-driven (async + data-phase) pipeline only in
  /// that case. Bank faults are orthogonal: they trigger the settlement
  /// lifecycle (see BankFaultConfig::enabled), not the async data plane.
  [[nodiscard]] bool enabled() const noexcept {
    return link_loss > 0.0 || delay_jitter > 0.0 || crash_rate_per_hour > 0.0 ||
           probe_false_negative > 0.0;
  }
};

class FaultInjector {
 public:
  FaultInjector(const FaultConfig& cfg, net::Overlay& overlay, sim::rng::Stream stream);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Schedule the per-node crash hazards. Call once, before running the
  /// simulator (a no-op when crash_rate_per_hour == 0).
  void start();

  /// Decide the fate of one message from -> to at the current sim time:
  /// loss is an independent Bernoulli draw.
  [[nodiscard]] bool drop_message(net::NodeId from, net::NodeId to);

  /// Extra one-way latency for a message on (from, to): U[0, jitter * base].
  /// Zero (and no stream draw) when delay_jitter == 0.
  [[nodiscard]] sim::Time extra_delay(net::NodeId from, net::NodeId to);

  /// What a probe by `prober` observes about `target`: ground truth liveness
  /// degraded by false negatives. Never a false positive.
  [[nodiscard]] bool probe_observation(net::NodeId prober, net::NodeId target);

  [[nodiscard]] std::uint64_t crashes() const noexcept { return crashes_; }
  [[nodiscard]] std::uint64_t messages_dropped() const noexcept { return drops_; }
  [[nodiscard]] std::uint64_t probe_false_negatives() const noexcept {
    return probe_false_negatives_;
  }

  /// Time of the node's most recent silent crash / recovery; -1 if never.
  [[nodiscard]] sim::Time last_crash_time(net::NodeId id) const { return last_crash_.at(id); }
  [[nodiscard]] sim::Time last_recovery_time(net::NodeId id) const {
    return last_recovery_.at(id);
  }

  [[nodiscard]] const FaultConfig& config() const noexcept { return cfg_; }

 private:
  void schedule_next_crash(net::NodeId id);
  void fire_crash(net::NodeId id);

  FaultConfig cfg_;
  net::Overlay& overlay_;
  sim::rng::Stream loss_stream_;
  sim::rng::Stream jitter_stream_;
  sim::rng::Stream probe_stream_;
  std::vector<sim::rng::Stream> crash_streams_;  ///< one per node, keyed by id
  std::vector<sim::Time> last_crash_;
  std::vector<sim::Time> last_recovery_;
  std::uint64_t crashes_ = 0;
  std::uint64_t drops_ = 0;
  std::uint64_t probe_false_negatives_ = 0;
};

}  // namespace p2panon::fault
