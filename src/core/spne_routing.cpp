#include "core/spne_routing.hpp"

#include <cassert>

namespace p2panon::core {

game::PathGameSpec SpneRouting::make_spec(const RoutingContext& ctx) {
  game::PathGameSpec spec;
  spec.node_count = ctx.nodes.size();
  spec.responder = ctx.responder;
  spec.candidates = [&ctx](net::NodeId v) {
    std::vector<net::NodeId> out;
    for (net::NodeId c : ctx.nodes.neighbors_of(v)) {
      if (c != v && ctx.appears_online(c)) out.push_back(c);
    }
    return out;
  };
  spec.edge_quality = [&ctx](net::NodeId i, net::NodeId j) {
    return ctx.quality.edge_quality(i, j, ctx.responder, ctx.pair, net::kInvalidNode,
                                    ctx.conn_index);
  };
  spec.forwarding_benefit = ctx.contract.forwarding_benefit;
  spec.routing_benefit = ctx.contract.routing_benefit();
  spec.cost = [&ctx](net::NodeId i, net::NodeId j) {
    return participation_cost(ctx, i) + transmission_cost(ctx, i, j);
  };
  return spec;
}

namespace {

/// Equilibrium onward-path quality of `holder` with `stages_left` moves
/// remaining — the lazy, memoised twin of
/// BackwardInductionSolver::compute_decision. It visits candidates in the
/// same order (overlay neighbour order, skipping self/offline/responder),
/// evaluates the same expressions in the same order, and applies the same
/// strictly-better-wins rule, so its values are bitwise identical to the
/// eager table's onward_quality — but only subgames actually reachable from
/// the decision point are solved, each at most once per decision thanks to
/// the scratch memo. Predecessors never enter the stage game (selectivity
/// conditions on kInvalidNode), so (holder, stages_left) is the whole state.
double equilibrium_onward(const RoutingContext& ctx, net::NodeId holder,
                          std::uint32_t stages_left) {
  if (holder == ctx.responder) return 0.0;

  DecisionScratch& scratch = ctx.resources.scratch;
  const sim::PackedKey key = sim::PackedKey::of(holder, stages_left, 0, kScratchEquilibrium);
  double cached = 0.0;
  if (scratch.lookup(key, &cached)) return cached;

  // Delivering to the responder is always available: edge quality 1.
  double best_onward = 1.0;
  double best_utility = ctx.contract.forwarding_benefit + 1.0 * ctx.contract.routing_benefit() -
                        (participation_cost(ctx, holder) +
                         transmission_cost(ctx, holder, ctx.responder));

  if (stages_left > 0) {
    const EdgeQualityEvaluator::Position at = ctx.position(holder, net::kInvalidNode);
    for (net::NodeId j : ctx.nodes.neighbors_of(holder)) {
      if (j == holder || !ctx.appears_online(j) || j == ctx.responder) continue;
      const double q_ij = at.quality(j);
      const double onward = q_ij + equilibrium_onward(ctx, j, stages_left - 1);
      const double u = ctx.contract.forwarding_benefit + onward * ctx.contract.routing_benefit() -
                       (participation_cost(ctx, holder) + transmission_cost(ctx, holder, j));
      if (u > best_utility) {
        best_utility = u;
        best_onward = onward;
      }
    }
  }

  scratch.store(key, best_onward);
  return best_onward;
}

}  // namespace

HopChoice SpneRouting::choose(const RoutingContext& ctx, net::NodeId self, net::NodeId pred,
                              std::span<const net::NodeId> candidates,
                              sim::rng::Stream& /*stream*/) const {
  assert(!candidates.empty());

  // The equilibrium prescription considers the full neighbour set; the
  // builder may offer a narrower candidate list (declines, no-backtrack),
  // so re-derive the best response restricted to `candidates`, using the
  // equilibrium continuation values of the lazy memoised DFS above.
  DecisionScope scope(ctx.resources);

  // The stage game scores from the predecessor-free position; the reported
  // edge quality and the tie-break use the path's actual predecessor.
  const EdgeQualityEvaluator::Position stage = ctx.position(self, net::kInvalidNode);
  const EdgeQualityEvaluator::Position at = ctx.position(self, pred);
  HopChoice best;
  bool have = false;
  for (net::NodeId j : candidates) {
    double onward;
    if (j == ctx.responder) {
      onward = 1.0;
    } else if (stages_ == 0) {
      // At the forced-delivery stage a forwarding move earns no equilibrium
      // continuation: only the immediate edge counts, so the responder's
      // quality-1 edge dominates whenever it is available.
      onward = stage.quality(j);
    } else {
      onward = stage.quality(j) + equilibrium_onward(ctx, j, stages_ - 1);
    }
    const double u = ctx.contract.forwarding_benefit + onward * ctx.contract.routing_benefit() -
                     (participation_cost(ctx, self) + transmission_cost(ctx, self, j));
    const double q = at.quality(j);
    if (!have || u > best.utility ||
        (u == best.utility && (q > best.edge_quality ||
                               (q == best.edge_quality && j < best.next)))) {
      best = HopChoice{j, u, q};
      have = true;
    }
  }
  return best;
}

}  // namespace p2panon::core
