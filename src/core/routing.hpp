// Routing strategies (paper §2.4).
//
// At each stage of path formation the current holder picks a next hop from
// its candidate set (its online neighbours, plus the responder if adjacent).
// Good nodes route *non-randomly*, maximising one of the two utility models;
// adversaries route randomly (their objective is breaking anonymity, not
// income). Ties among equal-utility candidates break toward the higher
// quality edge, per §2.2.
#pragma once

#include <memory>
#include <span>
#include <string_view>

#include "core/utility.hpp"
#include "net/overlay.hpp"
#include "sim/rng.hpp"

namespace p2panon::core {

/// The outcome of one hop decision.
struct HopChoice {
  net::NodeId next = net::kInvalidNode;
  double utility = 0.0;
  double edge_quality = 0.0;
};

class RoutingStrategy {
 public:
  virtual ~RoutingStrategy() = default;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Choose a next hop among `candidates` (nonempty) for node `self`, whose
  /// predecessor on this path is `pred` (kInvalidNode at the initiator).
  [[nodiscard]] virtual HopChoice choose(const RoutingContext& ctx, net::NodeId self,
                                         net::NodeId pred,
                                         std::span<const net::NodeId> candidates,
                                         sim::rng::Stream& stream) const = 0;
};

/// Uniform-random next hop — the baseline routing strategy and the paper's
/// adversary model.
class RandomRouting final : public RoutingStrategy {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "random"; }
  [[nodiscard]] HopChoice choose(const RoutingContext& ctx, net::NodeId self, net::NodeId pred,
                                 std::span<const net::NodeId> candidates,
                                 sim::rng::Stream& stream) const override;
};

/// Utility Model I: greedy maximisation of U_i(j) = P_f + q(i,j)P_r - C.
class UtilityModelIRouting final : public RoutingStrategy {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "utility-model-1"; }
  [[nodiscard]] HopChoice choose(const RoutingContext& ctx, net::NodeId self, net::NodeId pred,
                                 std::span<const net::NodeId> candidates,
                                 sim::rng::Stream& stream) const override;
};

/// Utility Model II: maximisation of onward-path quality toward R with a
/// bounded lookahead horizon (the operational form of the backward-induction
/// SPNE strategy — see core/game.hpp for the exact solver).
class UtilityModelIIRouting final : public RoutingStrategy {
 public:
  explicit UtilityModelIIRouting(std::uint32_t lookahead_depth = 3) noexcept
      : depth_(lookahead_depth) {}

  [[nodiscard]] std::string_view name() const noexcept override { return "utility-model-2"; }
  [[nodiscard]] std::uint32_t lookahead_depth() const noexcept { return depth_; }
  [[nodiscard]] HopChoice choose(const RoutingContext& ctx, net::NodeId self, net::NodeId pred,
                                 std::span<const net::NodeId> candidates,
                                 sim::rng::Stream& stream) const override;

 private:
  std::uint32_t depth_;
};

/// Which strategy a given node plays. Good nodes share one strategy object;
/// malicious nodes play RandomRouting (paper adversary model).
class StrategyAssignment {
 public:
  StrategyAssignment(const net::NodeStateSoA& nodes,
                     const RoutingStrategy& good_strategy) noexcept
      : nodes_(nodes), good_(good_strategy) {}
  StrategyAssignment(const net::Overlay& overlay, const RoutingStrategy& good_strategy) noexcept
      : StrategyAssignment(overlay.state(), good_strategy) {}

  [[nodiscard]] const RoutingStrategy& of(net::NodeId id) const noexcept {
    return nodes_.is_malicious(id) ? static_cast<const RoutingStrategy&>(adversary_) : good_;
  }

 private:
  const net::NodeStateSoA& nodes_;
  const RoutingStrategy& good_;
  RandomRouting adversary_;
};

/// Named strategy kinds used by the experiment harness and benches. kSpne
/// is the exact backward-induction form of Utility Model II (see
/// core/spne_routing.hpp).
enum class StrategyKind { kRandom, kUtilityModelI, kUtilityModelII, kSpne };

/// Throws std::invalid_argument for kUtilityModelII with lookahead_depth 0.
[[nodiscard]] std::unique_ptr<RoutingStrategy> make_strategy(StrategyKind kind,
                                                             std::uint32_t lookahead_depth = 3);

[[nodiscard]] std::string_view strategy_name(StrategyKind kind) noexcept;

}  // namespace p2panon::core
