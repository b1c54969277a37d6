// SPNE routing: the exact game-theoretic form of Utility Model II.
//
// UtilityModelIIRouting approximates the L-stage game with per-decision
// exhaustive lookahead. This strategy instead *solves* the stage game over
// the live overlay by backward induction (core/game.hpp) and plays the
// prescribed equilibrium action — every peer's onward behaviour is the
// equilibrium continuation, and subgame perfection is machine-checkable.
//
// Semantics note: the stage-game abstraction evaluates q(i, j) without the
// mover's path predecessor (selectivity conditions on kInvalidNode), since
// the game tree does not thread per-path predecessors through subgames; the
// bounded-lookahead model threads them exactly. The two agree whenever
// selectivity is predecessor-insensitive; tests cover both the agreement
// and the equilibrium property.
//
// Solver: a lazy DFS over (holder, stages-left), memoised in the context's
// DecisionResources, solves only the subgames reachable from the decision
// point — bitwise identical to game::BackwardInductionSolver's eager table
// over make_spec(ctx), which test_decision_cache checks it against.
#pragma once

#include <cstdint>

#include "core/game.hpp"
#include "core/routing.hpp"

namespace p2panon::core {

class SpneRouting final : public RoutingStrategy {
 public:
  explicit SpneRouting(std::uint32_t stages = 3) noexcept : stages_(stages) {}

  [[nodiscard]] std::string_view name() const noexcept override { return "spne"; }
  [[nodiscard]] std::uint32_t stages() const noexcept { return stages_; }

  [[nodiscard]] HopChoice choose(const RoutingContext& ctx, net::NodeId self, net::NodeId pred,
                                 std::span<const net::NodeId> candidates,
                                 sim::rng::Stream& stream) const override;

  /// Build the stage-game spec this strategy solves for the given context.
  /// Exposed so callers (tests, examples) can verify subgame perfection on
  /// exactly the game being played.
  [[nodiscard]] static game::PathGameSpec make_spec(const RoutingContext& ctx);

 private:
  std::uint32_t stages_;
};

}  // namespace p2panon::core
