#include "core/routing.hpp"
#include "core/spne_routing.hpp"

#include <cassert>
#include <stdexcept>

namespace p2panon::core {

HopChoice RandomRouting::choose(const RoutingContext& ctx, net::NodeId self, net::NodeId pred,
                                std::span<const net::NodeId> candidates,
                                sim::rng::Stream& stream) const {
  assert(!candidates.empty());
  const net::NodeId pick = candidates[stream.below(candidates.size())];
  HopChoice c;
  c.next = pick;
  c.edge_quality = ctx.edge_q(self, pick, pred);
  c.utility = model1_utility_with_q(ctx, self, pick, c.edge_quality);
  return c;
}

namespace {

/// Shared argmax loop: pick the candidate with the highest utility, breaking
/// utility ties toward the higher-quality edge (paper §2.2), then toward the
/// lower node id for determinism. self's position is resolved once, the
/// edge quality once per candidate and handed to the utility callback, which
/// needs the same value.
template <typename UtilityFn>
HopChoice argmax_choice(const RoutingContext& ctx, net::NodeId self, net::NodeId pred,
                        std::span<const net::NodeId> candidates, UtilityFn&& utility_of) {
  assert(!candidates.empty());
  const EdgeQualityEvaluator::Position at = ctx.position(self, pred);
  HopChoice best;
  bool have = false;
  for (net::NodeId j : candidates) {
    const double q = at.quality(j);
    const double u = utility_of(j, q);
    const bool better =
        !have || u > best.utility ||
        (u == best.utility && (q > best.edge_quality ||
                               (q == best.edge_quality && j < best.next)));
    if (better) {
      best = HopChoice{j, u, q};
      have = true;
    }
  }
  return best;
}

}  // namespace

HopChoice UtilityModelIRouting::choose(const RoutingContext& ctx, net::NodeId self,
                                       net::NodeId pred,
                                       std::span<const net::NodeId> candidates,
                                       sim::rng::Stream& /*stream*/) const {
  return argmax_choice(ctx, self, pred, candidates, [&](net::NodeId j, double q) {
    return model1_utility_with_q(ctx, self, j, q);
  });
}

HopChoice UtilityModelIIRouting::choose(const RoutingContext& ctx, net::NodeId self,
                                        net::NodeId pred,
                                        std::span<const net::NodeId> candidates,
                                        sim::rng::Stream& /*stream*/) const {
  // One memo generation for at least the whole decision (PathBuilder::build
  // holds one for all its hops): candidate lookahead trees overlap heavily
  // and share their subproblem values.
  DecisionScope scope(ctx.resources);
  return argmax_choice(ctx, self, pred, candidates, [&](net::NodeId j, double q) {
    return model2_utility_with_q(ctx, self, j, depth_, q);
  });
}

std::unique_ptr<RoutingStrategy> make_strategy(StrategyKind kind, std::uint32_t lookahead_depth) {
  switch (kind) {
    case StrategyKind::kRandom:
      return std::make_unique<RandomRouting>();
    case StrategyKind::kUtilityModelI:
      return std::make_unique<UtilityModelIRouting>();
    case StrategyKind::kUtilityModelII:
      // Model II's horizon counts the edge i -> j itself, so it has no
      // zero form (model2_utility_with_q asserts depth >= 1); SPNE's has.
      if (lookahead_depth == 0) {
        throw std::invalid_argument("utility-model-2 needs lookahead_depth >= 1, got 0");
      }
      return std::make_unique<UtilityModelIIRouting>(lookahead_depth);
    case StrategyKind::kSpne:
      return std::make_unique<SpneRouting>(lookahead_depth);
  }
  return nullptr;  // unreachable
}

std::string_view strategy_name(StrategyKind kind) noexcept {
  switch (kind) {
    case StrategyKind::kRandom:
      return "random";
    case StrategyKind::kUtilityModelI:
      return "utility-model-1";
    case StrategyKind::kUtilityModelII:
      return "utility-model-2";
    case StrategyKind::kSpne:
      return "spne";
  }
  return "?";
}

}  // namespace p2panon::core
