// Forwarder utility models (paper §2.4.2, §2.4.3) and the initiator utility
// (Eq. 2).
//
// Utility Model I (greedy edge quality):
//   U_i(j) = P_f + q(i, j) * P_r - (C_p_i + C_t(i, j))
//
// Utility Model II (path quality toward R):
//   U_i(j) = P_f + q(pi(i, j, R)) * P_r - (C_p_i + C_t(i, j))
// where q(pi(i, j, R)) is the quality (sum of edge qualities) of the best
// onward path from i through j to R. The paper models this as an L-stage
// game solved by backward induction; operationally we realise the
// equilibrium strategy as a bounded-depth lookahead: every candidate j is
// scored over the same horizon of `lookahead_depth` further edges (paths
// reaching R stop early), so comparing quality sums is equivalent to
// comparing per-edge averages and the bounded horizon does not bias toward
// longer paths.
#pragma once

#include <cstdint>

#include "core/contract.hpp"
#include "core/decision_scratch.hpp"
#include "core/edge_quality.hpp"
#include "net/link_model.hpp"
#include "net/soa.hpp"

namespace p2panon::core {

/// Everything a routing decision at one hop needs to see.
struct RoutingContext {
  const net::NodeStateSoA& nodes;
  const net::LinkModel& links;
  const EdgeQualityEvaluator& quality;
  Contract contract;
  net::PairId pair = net::kInvalidPair;
  std::uint32_t conn_index = 1;  ///< k, 1-based
  net::NodeId responder = net::kInvalidNode;
  /// The per-replicate memo arena of this decision.
  DecisionResources& resources;
  /// What this decision believes about liveness (see net::LivenessView):
  /// the nodes' own columns unless the builder was given other ones.
  net::LivenessView believed = nodes.believed();

  [[nodiscard]] bool appears_online(net::NodeId id) const noexcept {
    return believed.appears_online(id);
  }

  /// q(s, v) for this decision.
  [[nodiscard]] double edge_q(net::NodeId s, net::NodeId v, net::NodeId pred) const {
    return quality.edge_quality(s, v, responder, pair, pred, conn_index);
  }

  /// s's position (predecessor `pred`) for this decision, to score several
  /// edges out of s with one history lookup.
  [[nodiscard]] EdgeQualityEvaluator::Position position(net::NodeId s, net::NodeId pred) const {
    return quality.position(s, responder, pair, pred, conn_index);
  }
};

/// Participation cost C_p of node i (paper §2.4.1).
[[nodiscard]] inline double participation_cost(const RoutingContext& ctx, net::NodeId i) {
  return ctx.nodes.participation_cost[i];
}

/// Transmission cost C_t(i, j) of one forwarding instance (paper §2.4.1).
[[nodiscard]] inline double transmission_cost(const RoutingContext& ctx, net::NodeId i,
                                              net::NodeId j) {
  return ctx.links.transmission_cost(i, j);
}

/// Utility Model I for node i (predecessor `pred`) forwarding to j.
[[nodiscard]] double model1_utility(const RoutingContext& ctx, net::NodeId i, net::NodeId pred,
                                    net::NodeId j);

/// Model I with q(i, j) already in hand (callers that need the edge quality
/// anyway — e.g. for tie-breaking — avoid resolving it twice; the value is
/// identical to what model1_utility would recompute).
[[nodiscard]] double model1_utility_with_q(const RoutingContext& ctx, net::NodeId i,
                                           net::NodeId j, double q_ij);

/// Quality (sum of edge qualities) of the best onward path of at most
/// `depth` edges starting at node `from` (predecessor `pred`), stopping
/// early when the responder is reached. Exhaustive search over online
/// neighbours; cost O(d^depth), fine for d ~ 5 and depth <= 4. One
/// EdgeQualityEvaluator::Position for (from, pred) serves the whole call:
/// it scores every edge out of `from` (with no per-successor history probe
/// when `from` stores nothing at the position), decides the last-level
/// bound — at depth 1 the answer is exactly 1.0 (direct delivery), found
/// without scoring an edge, whenever Position::edges_at_most_direct holds,
/// so the search scores depth - 1 levels of edges plus the direct edge —
/// and gives the memo key. While a DecisionScope is open on ctx.resources,
/// subproblems are memoised per (from, canonical predecessor, depth):
/// predecessors with no stored history at `from` collapse to one canonical
/// key because sigma is exactly +0.0 toward every successor. The memo
/// lives for the whole PathBuilder::build, so later hops reuse the values
/// earlier hops computed, and the d^depth tree becomes at most
/// nodes x depth distinct evaluations per build.
[[nodiscard]] double best_onward_quality(const RoutingContext& ctx, net::NodeId from,
                                         net::NodeId pred, std::uint32_t depth);

/// Utility Model II for node i (predecessor `pred`) forwarding to j, with
/// the given lookahead horizon (>= 1; 1 degenerates to Model I).
[[nodiscard]] double model2_utility(const RoutingContext& ctx, net::NodeId i, net::NodeId pred,
                                    net::NodeId j, std::uint32_t lookahead_depth);

/// Model II with q(i, j) already in hand (see model1_utility_with_q; i's own
/// predecessor only ever entered Model II through q_ij, so it is not a
/// parameter here).
[[nodiscard]] double model2_utility_with_q(const RoutingContext& ctx, net::NodeId i,
                                           net::NodeId j, std::uint32_t lookahead_depth,
                                           double q_ij);

/// Whether node j would agree to participate as a forwarder under the
/// contract: the sufficient condition of Proposition 3, P_f > C_p + C_t,
/// evaluated against j's cheapest usable outgoing link (including direct
/// delivery to the responder).
[[nodiscard]] bool would_participate(const RoutingContext& ctx, net::NodeId j);

}  // namespace p2panon::core
