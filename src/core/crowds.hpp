// Static-path Crowds sessions — the classic baseline system.
//
// In Crowds (Reiter & Rubin), the initiator forms ONE path per session and
// reuses it for every subsequent request to the responder; the path only
// re-forms when a member leaves ("reformation"). This is the system class
// the paper's §1-2 is about: under churn, reformations are frequent, and
// each reformation both enlarges the forwarder set Q and hands passive
// attackers a fresh observation.
//
// This module implements that baseline faithfully so the incentive
// mechanism can be compared against the *system* it improves, not just
// against per-connection random routing:
//
//  * CrowdsSession holds the current static path for one (I, R) pair;
//  * each connection reuses the path if every member is still online,
//    otherwise the path re-forms from scratch (counted as a reformation);
//  * path formation itself uses any RoutingStrategy (uniform-random for
//    classic Crowds; a utility model to study "incentive + static paths").
#pragma once

#include <cstdint>

#include "core/incentive.hpp"
#include "core/path.hpp"

namespace p2panon::core {

class CrowdsSession {
 public:
  CrowdsSession(net::PairId pair, net::NodeId initiator, net::NodeId responder,
                Contract contract) noexcept
      : set_(pair, initiator, responder, contract) {}

  /// Run the next connection: reuse the current static path when all of its
  /// forwarders are online, otherwise re-form it (a reformation). The set
  /// then adopts the path, which records history, charges costs and grows
  /// the forwarder set exactly as for per-connection routing. Re-formation
  /// routes through `builder`, so it shares the builder's per-replicate
  /// DecisionResources (decision memo arena) when attached.
  const BuiltPath& run_connection(const PathBuilder& builder, HistoryStore& history,
                                  const StrategyAssignment& strategies, PayoffLedger& ledger,
                                  const net::Overlay& overlay, sim::rng::Stream& stream);

  /// The connection set the static path serves: connections run, forwarder
  /// set Q, L and Q(pi).
  [[nodiscard]] const ConnectionSetSession& set() const noexcept { return set_; }
  /// Reformations = path (re)formations beyond the first.
  [[nodiscard]] std::uint32_t reformations() const noexcept {
    return formations_ > 0 ? formations_ - 1 : 0;
  }
  [[nodiscard]] const BuiltPath& current_path() const noexcept { return current_; }

 private:
  [[nodiscard]] bool path_alive(const net::Overlay& overlay) const;

  ConnectionSetSession set_;
  BuiltPath current_;
  std::uint32_t formations_ = 0;
};

}  // namespace p2panon::core
