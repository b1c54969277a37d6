// Path formation (paper §2.2).
//
// A path for connection k of a pair grows hop by hop: the contract
// propagates, the current holder decides (per the termination policy)
// whether to deliver directly to the responder or forward, candidate next
// hops are the holder's online neighbours (plus the responder when
// adjacent), each candidate may decline participation (utility test of
// Prop. 3), and the holder's routing strategy picks among the willing ones.
// When the responder receives the payload, the confirmation travels the
// reverse path and the initiator recreates and validates the path; here that
// validation is realised by HistoryStore::record_path plus the receipt chain
// assembled in core/incentive.
#pragma once

#include <cstdint>
#include <vector>

#include "core/routing.hpp"

namespace p2panon::core {

struct BuiltPath {
  /// Full node sequence: initiator, forwarders..., responder.
  std::vector<net::NodeId> nodes;
  /// Per-hop edge qualities as evaluated by the deciding node, aligned with
  /// edges nodes[i] -> nodes[i+1].
  std::vector<double> edge_qualities;
  /// Candidates that declined participation during formation.
  std::uint32_t declined = 0;

  [[nodiscard]] std::size_t forwarder_count() const noexcept {
    return nodes.size() >= 2 ? nodes.size() - 2 : 0;
  }
  [[nodiscard]] net::NodeId initiator() const { return nodes.front(); }
  [[nodiscard]] net::NodeId responder() const { return nodes.back(); }
};

struct PathBuilderConfig {
  /// Hard cap on forwarder count (safety guard against pathological loops).
  std::uint32_t max_forwarders = 64;
  /// Honour participation declines (Prop. 3 utility test at each candidate).
  bool allow_declines = true;
};

class PathBuilder {
 public:
  /// The builder owns its decision memo arena (allocated on first use),
  /// threaded into every RoutingContext it creates.
  PathBuilder(const net::Overlay& overlay, const EdgeQualityEvaluator& quality,
              PathBuilderConfig cfg = {}) noexcept
      : PathBuilder(overlay, quality, cfg, &owned_) {}

  /// As above, but sharing the caller's per-replicate `shared` resources
  /// (never null), which must outlive the builder.
  PathBuilder(const net::Overlay& overlay, const EdgeQualityEvaluator& quality,
              PathBuilderConfig cfg, DecisionResources* shared) noexcept
      : PathBuilder(overlay.state(), overlay.state().believed(), overlay.links(), quality, cfg,
                    shared) {}

  /// Over bare node columns: `nodes` gives neighbours, kinds and costs,
  /// `believed` the liveness every decision reads (the serial overlay's own
  /// columns above; the K > 1 paper runner's published snapshot).
  PathBuilder(const net::NodeStateSoA& nodes, net::LivenessView believed,
              const net::LinkModel& links, const EdgeQualityEvaluator& quality,
              PathBuilderConfig cfg, DecisionResources* shared) noexcept
      : nodes_(nodes), believed_(believed), links_(links), quality_(quality), cfg_(cfg),
        resources_(*shared) {}

  /// Non-copyable: a copy would alias the original's owned resources.
  PathBuilder(const PathBuilder&) = delete;
  PathBuilder& operator=(const PathBuilder&) = delete;

  [[nodiscard]] const EdgeQualityEvaluator& quality_evaluator() const noexcept {
    return quality_;
  }

  [[nodiscard]] DecisionResources& resources() const noexcept { return resources_; }

  /// Form the path for connection `conn_index` (1-based) of `pair` from
  /// `initiator` to `responder` under `contract`, with per-node strategies
  /// from `strategies`. Randomness (termination coins, adversary picks)
  /// comes from `stream`. The whole build is one DecisionScope: every hop
  /// decision shares one memo generation.
  [[nodiscard]] BuiltPath build(net::PairId pair, std::uint32_t conn_index,
                                net::NodeId initiator, net::NodeId responder,
                                const Contract& contract, const StrategyAssignment& strategies,
                                sim::rng::Stream& stream) const;

  /// One hop decision, exposed for event-driven (asynchronous) formation:
  /// given the holder's situation, either deliver to the responder
  /// (delivered = true) or forward to `next`. `forwarders_so_far` feeds the
  /// hop-count termination policy and the loop guard. Opens no scope of its
  /// own: called outside build(), each decision gets its own memo generation
  /// from the strategy, since events may run between hops.
  struct HopOutcome {
    net::NodeId next = net::kInvalidNode;
    double edge_quality = 0.0;
    bool delivered = false;
    std::uint32_t declined = 0;
  };
  [[nodiscard]] HopOutcome next_hop(const RoutingContext& ctx, net::NodeId holder,
                                    net::NodeId pred, bool first_hop,
                                    std::uint32_t forwarders_so_far,
                                    const StrategyAssignment& strategies,
                                    sim::rng::Stream& coin_stream,
                                    sim::rng::Stream& pick_stream) const;

 private:
  /// Willing, online candidates for `holder`; includes the responder when
  /// adjacent and online — except on the first hop, where the initiator
  /// must route via a forwarder to preserve its own anonymity. The immediate
  /// predecessor is excluded (a forwarder never bounces the payload straight
  /// back) unless it is the only live option; longer revisit cycles remain
  /// possible, which is why history entries are keyed by predecessor.
  /// Refills and returns ctx.resources.candidates, so a hop allocates
  /// nothing once the buffer has grown.
  [[nodiscard]] std::vector<net::NodeId>& candidates_for(const RoutingContext& ctx,
                                                         net::NodeId holder, net::NodeId pred,
                                                         bool first_hop,
                                                         std::uint32_t* declined) const;

  const net::NodeStateSoA& nodes_;
  net::LivenessView believed_;
  const net::LinkModel& links_;
  const EdgeQualityEvaluator& quality_;
  PathBuilderConfig cfg_;
  DecisionResources owned_;
  DecisionResources& resources_;
};

}  // namespace p2panon::core
