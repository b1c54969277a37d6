#include "core/utility.hpp"

#include <algorithm>
#include <cassert>

namespace p2panon::core {

double model1_utility_with_q(const RoutingContext& ctx, net::NodeId i, net::NodeId j,
                             double q_ij) {
  return ctx.contract.forwarding_benefit + q_ij * ctx.contract.routing_benefit() -
         (participation_cost(ctx, i) + transmission_cost(ctx, i, j));
}

double model1_utility(const RoutingContext& ctx, net::NodeId i, net::NodeId pred, net::NodeId j) {
  return model1_utility_with_q(ctx, i, j, ctx.edge_q(i, j, pred));
}

double best_onward_quality(const RoutingContext& ctx, net::NodeId from, net::NodeId pred,
                           std::uint32_t depth) {
  if (depth == 0 || from == ctx.responder) return 0.0;

  // At the last level every total below is one edge quality, so when none
  // can exceed the quality-1 direct edge the loop would return exactly 1.0.
  const EdgeQualityEvaluator::Position at = ctx.position(from, pred);
  if (depth == 1 && at.edges_at_most_direct()) return 1.0;

  // Memoise per (from, canonical pred, depth) within the current scope. A
  // predecessor with no stored history at `from` yields sigma == +0.0
  // toward every successor, so all such predecessors share one subtree
  // value bitwise.
  DecisionScratch& scratch = ctx.resources.scratch;
  const net::NodeId canonical = at.count() == 0 ? net::kInvalidNode : pred;
  const sim::PackedKey key = sim::PackedKey::of(from, canonical, depth, kScratchLookahead);
  double cached = 0.0;
  if (scratch.armed() && scratch.lookup(key, &cached)) return cached;

  double best = 0.0;
  bool any = false;
  for (net::NodeId c : ctx.nodes.neighbors_of(from)) {
    if (!ctx.appears_online(c) || c == from) continue;
    const double q = at.quality(c);
    const double total =
        c == ctx.responder ? q : q + best_onward_quality(ctx, c, from, depth - 1);
    if (!any || total > best) {
      best = total;
      any = true;
    }
  }
  // Direct delivery to the responder is always available (quality-1 edge).
  const double direct = 1.0;
  if (!any || direct > best) best = direct;

  if (scratch.armed()) scratch.store(key, best);
  return best;
}

double model2_utility_with_q(const RoutingContext& ctx, net::NodeId i, net::NodeId j,
                             std::uint32_t lookahead_depth, double q_ij) {
  assert(lookahead_depth >= 1);
  const double onward =
      j == ctx.responder ? 0.0 : best_onward_quality(ctx, j, i, lookahead_depth - 1);
  const double path_q = q_ij + onward;
  return ctx.contract.forwarding_benefit + path_q * ctx.contract.routing_benefit() -
         (participation_cost(ctx, i) + transmission_cost(ctx, i, j));
}

double model2_utility(const RoutingContext& ctx, net::NodeId i, net::NodeId pred, net::NodeId j,
                      std::uint32_t lookahead_depth) {
  return model2_utility_with_q(ctx, i, j, lookahead_depth, ctx.edge_q(i, j, pred));
}

bool would_participate(const RoutingContext& ctx, net::NodeId j) {
  // Cheapest usable outgoing link: any online neighbour or direct delivery.
  // The minimum is at most the direct cost and C_p + x rounds monotonically
  // in x, so when direct delivery already clears the bar the scan cannot
  // change the answer.
  const double p_f = ctx.contract.forwarding_benefit;
  const double c_p = participation_cost(ctx, j);
  double min_ct = transmission_cost(ctx, j, ctx.responder);
  if (p_f > c_p + min_ct) return true;
  for (net::NodeId c : ctx.nodes.neighbors_of(j)) {
    if (!ctx.appears_online(c) || c == j) continue;
    min_ct = std::min(min_ct, transmission_cost(ctx, j, c));
  }
  return p_f > c_p + min_ct;
}

}  // namespace p2panon::core
