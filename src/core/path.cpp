#include "core/path.hpp"

#include <cassert>

namespace p2panon::core {

std::vector<net::NodeId>& PathBuilder::candidates_for(const RoutingContext& ctx,
                                                      net::NodeId holder, net::NodeId pred,
                                                      bool first_hop,
                                                      std::uint32_t* declined) const {
  std::vector<net::NodeId>& out = ctx.resources.candidates;
  out.clear();
  for (net::NodeId c : nodes_.neighbors_of(holder)) {
    if (c == holder || c == pred || !ctx.appears_online(c)) continue;
    if (c == ctx.responder) {
      // The initiator never hands the payload straight to the responder —
      // that forfeits its anonymity (in Crowds the first hop is always a
      // jondo). Forwarders may: the responder never "declines" its traffic.
      if (!first_hop) out.push_back(c);
      continue;
    }
    if (cfg_.allow_declines && nodes_.is_good(c) && !would_participate(ctx, c)) {
      ++*declined;
      continue;
    }
    out.push_back(c);
  }
  return out;
}

PathBuilder::HopOutcome PathBuilder::next_hop(const RoutingContext& ctx, net::NodeId holder,
                                              net::NodeId pred, bool first_hop,
                                              std::uint32_t forwarders_so_far,
                                              const StrategyAssignment& strategies,
                                              sim::rng::Stream& coin_stream,
                                              sim::rng::Stream& pick_stream) const {
  HopOutcome out;
  // Termination decision at every hop after the initiator's unconditional
  // first hop (in Crowds the initiator always forwards to a jondo). Note
  // "first hop" means the first decision of the connection — the walk may
  // *revisit* the initiator node later as an ordinary forwarder, where the
  // termination policy applies as usual.
  bool deliver = false;
  if (!first_hop) {
    switch (ctx.contract.termination) {
      case TerminationPolicy::kCrowds:
        deliver = !coin_stream.bernoulli(ctx.contract.p_forward);
        break;
      case TerminationPolicy::kHopCount:
        deliver = forwarders_so_far >= ctx.contract.ttl_hops;
        break;
    }
  }
  if (forwarders_so_far >= cfg_.max_forwarders) deliver = true;

  if (!deliver) {
    std::vector<net::NodeId>& candidates =
        candidates_for(ctx, holder, pred, first_hop, &out.declined);
    if (candidates.empty() && pred != net::kInvalidNode && ctx.appears_online(pred)) {
      // Only the sender itself is available: bouncing back beats failing.
      candidates.push_back(pred);
    }
    if (candidates.empty()) {
      deliver = true;  // nobody willing: deliver directly
    } else {
      const HopChoice choice =
          strategies.of(holder).choose(ctx, holder, pred, candidates, pick_stream);
      out.next = choice.next;
      out.edge_quality = choice.edge_quality;
      out.delivered = out.next == ctx.responder;
      if (out.delivered) out.edge_quality = 1.0;
      return out;
    }
  }
  out.next = ctx.responder;
  out.edge_quality = 1.0;  // last edge always quality 1
  out.delivered = true;
  return out;
}

BuiltPath PathBuilder::build(net::PairId pair, std::uint32_t conn_index, net::NodeId initiator,
                             net::NodeId responder, const Contract& contract,
                             const StrategyAssignment& strategies,
                             sim::rng::Stream& stream) const {
  assert(initiator != responder);
  RoutingContext ctx{nodes_,     links_,    quality_,   contract, pair,
                     conn_index, responder, resources_, believed_};
  // No event runs inside a build, so the world is frozen for all its hops:
  // one memo generation serves every decision (each choose() scope nests).
  DecisionScope scope(resources_);

  // The path grows in the resources' buffers and leaves at its exact size:
  // two allocations per build, and no slack in the paths a session keeps.
  std::vector<net::NodeId>& nodes = resources_.path_nodes;
  std::vector<double>& qualities = resources_.path_qualities;
  nodes.assign(1, initiator);
  qualities.clear();

  BuiltPath path;
  net::NodeId holder = initiator;
  net::NodeId pred = net::kInvalidNode;
  std::uint32_t forwarders = 0;
  auto coin_stream = stream.child("termination", conn_index);
  auto pick_stream = stream.child("picks", conn_index);

  while (holder != responder) {
    const bool first_hop = nodes.size() == 1;
    const HopOutcome hop = next_hop(ctx, holder, pred, first_hop, forwarders, strategies,
                                    coin_stream, pick_stream);
    path.declined += hop.declined;
    qualities.push_back(hop.edge_quality);
    nodes.push_back(hop.next);
    if (hop.next != responder) ++forwarders;
    pred = holder;
    holder = hop.next;
  }
  assert(nodes.size() == qualities.size() + 1);
  path.nodes.assign(nodes.begin(), nodes.end());
  path.edge_qualities.assign(qualities.begin(), qualities.end());
  return path;
}

}  // namespace p2panon::core
