// The decision stack does each decision's work once, and no answer may
// show it. These tests pin the three pieces that make that so:
//  - EdgeQualityEvaluator::Position scores an edge bitwise as edge_quality()
//    does, including the empty-position rule (no stored entry at (pair,
//    predecessor) means sigma is +0.0 without a probe);
//  - PathBuilder::build shares one memo generation across all its hops and
//    returns the same path as a build whose every decision opens its own;
//  - DecisionScope nests without bumping the generation, and the memo's
//    early-stopping lookup still finds keys once a probe window is full.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/decision_scratch.hpp"
#include "core/edge_quality.hpp"
#include "core/path.hpp"
#include "core/spne_routing.hpp"
#include "core/suspicion.hpp"
#include "fixtures.hpp"
#include "sim/flat_hash.hpp"

using namespace p2panon::core;
using p2panon::net::kInvalidNode;
using p2panon::net::NodeId;
using p2panon::net::PairId;
using p2panon::sim::PackedKey;
namespace rng = p2panon::sim::rng;
using p2ptest::StableWorld;

namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// A history of `entries` random records over `pairs` pairs: random holder,
/// predecessor and successor, each written as the 3-node path (predecessor,
/// holder, successor), so most positions stay empty and some hold more
/// entries than k - 1.
void fill_random_history(HistoryStore& history, std::size_t nodes, std::uint32_t pairs,
                         std::size_t entries, rng::Stream& stream) {
  for (std::size_t e = 0; e < entries; ++e) {
    const auto s = static_cast<NodeId>(stream.below(nodes));
    const auto pair = static_cast<PairId>(stream.below(pairs));
    (void)stream.below(12);  // unused draw; keeps this stream's sequence of triples
    const auto predecessor = static_cast<NodeId>(stream.below(nodes));
    const auto successor = static_cast<NodeId>(stream.below(nodes));
    history.record_path(pair, {predecessor, s, successor});
  }
}

/// Position::quality against edge_quality, bit for bit, over every holder,
/// predecessor (kInvalidNode included), successor and pair (one pair past
/// the recorded ones) at connections k = 1 and k > 1. Counts the empty and
/// the non-empty positions, so a caller can check that both branches ran.
void check_position_against_edge_quality(const StableWorld& w,
                                         const EdgeQualityEvaluator& quality,
                                         std::uint32_t pairs, std::size_t* empty,
                                         std::size_t* stored) {
  const NodeId responder = 19;
  const auto n = static_cast<NodeId>(w.overlay.size());
  for (std::uint32_t k : {1u, 2u, 5u, 12u}) {
    for (PairId pair = 0; pair <= pairs; ++pair) {
      for (NodeId s = 0; s < n; ++s) {
        for (NodeId p = 0; p <= n; ++p) {
          const NodeId pred = p == n ? kInvalidNode : p;
          const EdgeQualityEvaluator::Position at = quality.position(s, responder, pair, pred, k);
          ++*(at.count() == 0 ? empty : stored);
          for (NodeId v = 0; v < n; ++v) {
            const double want = quality.edge_quality(s, v, responder, pair, pred, k);
            ASSERT_EQ(bits(at.quality(v)), bits(want))
                << "s=" << s << " pred=" << pred << " v=" << v << " pair=" << pair
                << " k=" << k;
          }
        }
      }
    }
  }
}

}  // namespace

TEST(EdgePosition, ScoresBitwiseAsEdgeQualityOverRandomHistories) {
  StableWorld w(/*seed=*/5);
  w.warmup();
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    HistoryStore history(w.overlay.size());
    auto stream = rng::Stream(seed).child("random-history");
    fill_random_history(history, w.overlay.size(), 3, 400, stream);
    SuspicionTracker suspicion(w.overlay.size());
    for (NodeId v = 0; v < w.overlay.size(); ++v) {
      for (std::uint64_t t = stream.below(4); t > 0; --t) suspicion.record_timeout(v);
    }
    // The paper's weights, and off-simplex weights where w_s * +0.0 is -0.0
    // (w_s < 0), so the rule's zero must carry the probe's sign exactly.
    for (const QualityWeights weights :
         {QualityWeights{}, QualityWeights{3.0, -2.0}, QualityWeights{-1.0, 2.0}}) {
      for (const SuspicionTracker* tracker : {static_cast<const SuspicionTracker*>(nullptr),
                                              static_cast<const SuspicionTracker*>(&suspicion)}) {
        SCOPED_TRACE(testing::Message() << "seed=" << seed << " w_s=" << weights.w_selectivity
                                        << " suspicion=" << (tracker != nullptr));
        const EdgeQualityEvaluator quality(w.probing, history, weights, tracker);
        std::size_t empty = 0;
        std::size_t stored = 0;
        check_position_against_edge_quality(w, quality, 3, &empty, &stored);
        EXPECT_GT(empty, 0u);
        EXPECT_GT(stored, 0u);
      }
    }
  }
}

namespace {

/// The reference build: PathBuilder::build's loop over next_hop with the
/// same streams, but with no scope around it, so each decision opens its
/// own memo generation (as the event-driven runner's decisions do).
BuiltPath build_decision_by_decision(const PathBuilder& builder, const StableWorld& w,
                                     PairId pair, std::uint32_t k, NodeId initiator,
                                     NodeId responder, const Contract& contract,
                                     const StrategyAssignment& strategies,
                                     rng::Stream& stream) {
  const RoutingContext ctx{w.overlay.state(), w.overlay.links(), builder.quality_evaluator(),
                           contract, pair, k, responder, builder.resources()};
  BuiltPath path;
  path.nodes.push_back(initiator);
  auto coin_stream = stream.child("termination", k);
  auto pick_stream = stream.child("picks", k);
  NodeId holder = initiator;
  NodeId pred = kInvalidNode;
  std::uint32_t forwarders = 0;
  while (holder != responder) {
    const PathBuilder::HopOutcome hop =
        builder.next_hop(ctx, holder, pred, path.nodes.size() == 1, forwarders, strategies,
                         coin_stream, pick_stream);
    path.declined += hop.declined;
    path.edge_qualities.push_back(hop.edge_quality);
    path.nodes.push_back(hop.next);
    if (hop.next != responder) ++forwarders;
    pred = holder;
    holder = hop.next;
  }
  return path;
}

/// The forwarding benefit at which about half the nodes decline: the median
/// over nodes of C_p plus the cheapest link (Prop. 3's bar in
/// would_participate, with every node online).
double median_participation_bar(const StableWorld& w, NodeId responder) {
  std::vector<double> bars;
  for (NodeId j = 0; j < w.overlay.size(); ++j) {
    double min_ct = w.overlay.links().transmission_cost(j, responder);
    for (NodeId c : w.overlay.neighbors(j)) {
      if (c != j) min_ct = std::min(min_ct, w.overlay.links().transmission_cost(j, c));
    }
    bars.push_back(w.overlay.state().participation_cost[j] + min_ct);
  }
  std::nth_element(bars.begin(), bars.begin() + bars.size() / 2, bars.end());
  return bars[bars.size() / 2];
}

}  // namespace

TEST(BuildScope, OneGenerationPerBuildMatchesOnePerDecision) {
  // 40 nodes of degree 5, a quarter malicious (their random hops draw from
  // the pick stream between utility decisions), with history recorded
  // between connections so positions fill up and sigma matters.
  StableWorld w(/*seed=*/7, /*malicious_fraction=*/0.25, /*node_count=*/40, /*degree=*/5);
  w.warmup();
  const NodeId kResponder = 19;
  const double bar = median_participation_bar(w, kResponder);

  struct Case {
    const char* name;
    std::unique_ptr<RoutingStrategy> strategy;
  };
  Case cases[] = {{"model1", make_strategy(StrategyKind::kUtilityModelI)},
                  {"model2-depth3", make_strategy(StrategyKind::kUtilityModelII, 3)},
                  {"spne3", make_strategy(StrategyKind::kSpne, 3)}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    HistoryStore history(w.overlay.size());
    const EdgeQualityEvaluator quality(w.probing, history, QualityWeights{});
    const PathBuilder builder(w.overlay, quality);
    const PathBuilder reference(w.overlay, quality);
    const StrategyAssignment strategies(w.overlay, *c.strategy);
    std::uint32_t declined = 0;
    std::size_t multi_hop = 0;
    for (std::uint32_t pair = 0; pair < 6; ++pair) {
      const auto initiator = static_cast<NodeId>(pair);
      Contract contract;
      // Even pairs pay enough for everyone; odd pairs sit at the median bar,
      // so about half the candidates decline.
      contract.forwarding_benefit = pair % 2 == 0 ? 75.0 : bar;
      for (std::uint32_t k = 1; k <= 8; ++k) {
        auto stream = w.root.child("build-scope", pair * 100 + k);
        auto stream_copy = stream;
        const BuiltPath got =
            builder.build(pair, k, initiator, kResponder, contract, strategies, stream);
        const BuiltPath want = build_decision_by_decision(
            reference, w, pair, k, initiator, kResponder, contract, strategies, stream_copy);
        ASSERT_EQ(got.nodes, want.nodes) << "pair=" << pair << " k=" << k;
        ASSERT_EQ(got.edge_qualities.size(), want.edge_qualities.size());
        for (std::size_t e = 0; e < got.edge_qualities.size(); ++e) {
          EXPECT_EQ(bits(got.edge_qualities[e]), bits(want.edge_qualities[e]))
              << "pair=" << pair << " k=" << k << " edge=" << e;
        }
        EXPECT_EQ(got.declined, want.declined) << "pair=" << pair << " k=" << k;
        declined += got.declined;
        if (got.forwarder_count() >= 2) ++multi_hop;
        history.record_path(pair, got.nodes);
      }
    }
    EXPECT_GT(declined, 0u);   // declines were exercised
    EXPECT_GT(multi_hop, 0u);  // and builds of several decisions
  }
}

TEST(DecisionScratch, NestedScopeKeepsTheOuterGeneration) {
  DecisionResources res;
  const PackedKey key = PackedKey::of(4, 5, 6, kScratchLookahead);
  double out = 0.0;
  {
    DecisionScope build(res);
    res.scratch.store(key, 0.25);
    {
      DecisionScope decision(res);
      EXPECT_TRUE(res.scratch.armed());
      ASSERT_TRUE(res.scratch.lookup(key, &out));  // the outer entry survives
      EXPECT_EQ(out, 0.25);
      res.scratch.store(PackedKey::of(7, 8, 9, kScratchEquilibrium), 0.5);
    }
    EXPECT_TRUE(res.scratch.armed());  // the inner scope does not disarm
    ASSERT_TRUE(res.scratch.lookup(PackedKey::of(7, 8, 9, kScratchEquilibrium), &out));
    EXPECT_EQ(out, 0.5);
  }
  EXPECT_FALSE(res.scratch.armed());
  DecisionScope next(res);
  EXPECT_FALSE(res.scratch.lookup(key, &out));  // a new outer scope starts afresh
}

TEST(DecisionScratch, FullProbeWindowStillFindsStoredKeys) {
  // kProbes + 1 keys that share one home slot: the first kProbes fill the
  // window, the last evicts the home slot's key. Every key still stored is
  // found, though lookup stops at the first stale slot.
  const std::size_t home = DecisionScratch::home_slot(PackedKey::of(0, 0, 1, kScratchLookahead));
  std::vector<PackedKey> keys;
  for (std::uint32_t i = 0; keys.size() < DecisionScratch::kProbes + 1; ++i) {
    const PackedKey key = PackedKey::of(i, 0, 1, kScratchLookahead);
    if (DecisionScratch::home_slot(key) == home) keys.push_back(key);
  }
  DecisionResources res;
  {
    DecisionScope stale(res);  // a generation whose entries go stale below
    res.scratch.store(keys[0], -1.0);
  }
  DecisionScope scope(res);
  double out = 0.0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    res.scratch.store(keys[i], static_cast<double>(i));
    ASSERT_TRUE(res.scratch.lookup(keys[i], &out)) << "key " << i;
    EXPECT_EQ(out, static_cast<double>(i));
  }
  EXPECT_FALSE(res.scratch.lookup(keys[0], &out));  // evicted from the home slot
  for (std::size_t i = 1; i < keys.size(); ++i) {
    ASSERT_TRUE(res.scratch.lookup(keys[i], &out)) << "key " << i;
    EXPECT_EQ(out, static_cast<double>(i));
  }
  // A key homed in the full window but never stored probes all of it.
  for (std::uint32_t i = 1u << 20;; ++i) {
    const PackedKey absent = PackedKey::of(i, 0, 1, kScratchLookahead);
    if (DecisionScratch::home_slot(absent) != home) continue;
    EXPECT_FALSE(res.scratch.lookup(absent, &out));
    break;
  }
}
