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

  // Memoise per (from, canonical pred, depth) within the current decision.
  // A predecessor with no stored history at `from` yields sigma == +0.0
  // toward every successor, so all such predecessors share one subtree
  // value bitwise (position_count is the O(1) witness). The canonical
  // predecessor is resolved once per tree level and handed to the per-edge
  // lookups below, which then skip their own canonicalisation probe.
  EdgeQualityCache& cache = ctx.resources.edge_cache;
  DecisionScratch& scratch = ctx.resources.scratch;
  const EdgeQualityCache::NodeFacts facts = cache.node_facts(ctx.quality, from, ctx.pair, pred);
  const PackedKey key = PackedKey::of(from, facts.canonical, depth, kScratchLookahead);
  double cached = 0.0;
  if (scratch.armed() && scratch.lookup(key, &cached)) return cached;

  double best = 0.0;
  bool any = false;
  for (net::NodeId c : ctx.nodes.neighbors_of(from)) {
    if (!ctx.nodes.appears_online(c) || c == from) continue;
    const double q = cache.get_or_compute_at(ctx.quality, facts, c, ctx.responder, ctx.conn_index);
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
  double min_ct = transmission_cost(ctx, j, ctx.responder);
  for (net::NodeId c : ctx.nodes.neighbors_of(j)) {
    if (!ctx.nodes.appears_online(c) || c == j) continue;
    min_ct = std::min(min_ct, transmission_cost(ctx, j, c));
  }
  return ctx.contract.forwarding_benefit > participation_cost(ctx, j) + min_ct;
}

}  // namespace p2panon::core
