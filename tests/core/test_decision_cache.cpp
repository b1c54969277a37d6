// The decision stack's shortcuts must be *invisible* except in cost: the
// memoised lookahead (with its direct-delivery bound at the last level) and
// the lazy SPNE solver return doubles bitwise identical to independent
// references that call EdgeQualityEvaluator::edge_quality directly — a
// plain lookahead recursion local to this file and
// game::BackwardInductionSolver over SpneRouting::make_spec. These tests pin
// that contract, in worlds where the bound holds and where it fails, plus
// the generation isolation that makes the memo safe.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "core/decision_scratch.hpp"
#include "core/edge_quality.hpp"
#include "sim/flat_hash.hpp"
#include "core/game.hpp"
#include "core/spne_routing.hpp"
#include "core/suspicion.hpp"
#include "core/utility.hpp"
#include "fixtures.hpp"

using namespace p2panon::core;
using p2panon::sim::PackedFlatMap;
using p2panon::sim::PackedKey;
using p2panon::net::kInvalidNode;
using p2panon::net::NodeId;
using p2ptest::StableWorld;

TEST(PackedFlatMap, InsertAndFind) {
  PackedFlatMap<std::uint32_t> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(PackedKey::of(1, 2, 3)), nullptr);
  ++m.get_or_insert(PackedKey::of(1, 2, 3));
  ++m.get_or_insert(PackedKey::of(1, 2, 3));
  ++m.get_or_insert(PackedKey::of(4, 5, 6, 7));
  ASSERT_NE(m.find(PackedKey::of(1, 2, 3)), nullptr);
  EXPECT_EQ(*m.find(PackedKey::of(1, 2, 3)), 2u);
  EXPECT_EQ(*m.find(PackedKey::of(4, 5, 6, 7)), 1u);
  EXPECT_EQ(m.size(), 2u);
}

TEST(PackedFlatMap, SurvivesGrowth) {
  // Many inserts force several growth steps; every entry keeps its value.
  PackedFlatMap<std::uint32_t> m;
  constexpr std::uint32_t kN = 2000;
  for (std::uint32_t i = 0; i < kN; ++i) m.get_or_insert(PackedKey::of(i, i * 7, i % 13)) = i;
  for (std::uint32_t i = 0; i < kN; ++i) {
    const std::uint32_t* v = m.find(PackedKey::of(i, i * 7, i % 13));
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, i);
  }
  EXPECT_EQ(m.size(), kN);
}

TEST(PackedFlatMap, InsertReportsNewKeysAcrossReserve) {
  // insert() is the set operation the ledgers use: true once per key, and
  // a reserve() between inserts keeps every entry.
  PackedFlatMap<std::uint32_t> m;
  EXPECT_TRUE(m.insert(PackedKey{0}).second);  // the all-zero key is a key
  EXPECT_FALSE(m.insert(PackedKey{0}).second);
  m.insert(PackedKey::of(7, 8)).first = 5;
  m.reserve(1000);
  for (std::uint32_t i = 1; i < 1000; ++i) EXPECT_TRUE(m.insert(PackedKey::of(i, 0, 1)).second);
  auto [value, inserted] = m.insert(PackedKey::of(7, 8));
  EXPECT_FALSE(inserted);
  EXPECT_EQ(value, 5u);
  EXPECT_TRUE(m.contains(PackedKey{0}));
  EXPECT_FALSE(m.contains(PackedKey::of(1000, 0, 1)));
  EXPECT_EQ(m.size(), 1001u);
}

TEST(PackedFlatMap, DistinctKeysDoNotAlias) {
  // The four id fields occupy disjoint bit ranges: permutations of the same
  // ids are different keys.
  PackedFlatMap<std::uint32_t> m;
  m.get_or_insert(PackedKey::of(1, 2, 3, 4)) = 10;
  m.get_or_insert(PackedKey::of(4, 3, 2, 1)) = 20;
  m.get_or_insert(PackedKey::of(1, 2, 4, 3)) = 30;
  EXPECT_EQ(*m.find(PackedKey::of(1, 2, 3, 4)), 10u);
  EXPECT_EQ(*m.find(PackedKey::of(4, 3, 2, 1)), 20u);
  EXPECT_EQ(*m.find(PackedKey::of(1, 2, 4, 3)), 30u);
}

TEST(DecisionScratch, GenerationIsolatesDecisions) {
  DecisionResources res;
  const PackedKey key = PackedKey::of(1, 2, 3, kScratchLookahead);
  double out = 0.0;
  EXPECT_FALSE(res.scratch.armed());
  {
    DecisionScope scope(res);
    EXPECT_TRUE(res.scratch.armed());
    EXPECT_FALSE(res.scratch.lookup(key, &out));
    res.scratch.store(key, 0.75);
    ASSERT_TRUE(res.scratch.lookup(key, &out));
    EXPECT_EQ(out, 0.75);
  }
  EXPECT_FALSE(res.scratch.armed());
  {
    DecisionScope scope(res);
    // A new decision must not see the previous decision's entries.
    EXPECT_FALSE(res.scratch.lookup(key, &out));
  }
}

namespace {

/// Warmed world with recorded history so selectivity is non-trivial.
struct CacheWorld : StableWorld {
  /// `first_neighbour_only`: every probe sees only the prober's first
  /// neighbour alive, so alpha_s(D(s)[0]) == 1 for every s — including the
  /// edge a -> b whose selectivity the recorded paths drive to 1 at k = 6.
  explicit CacheWorld(bool first_neighbour_only = false) : StableWorld(/*seed=*/11) {
    if (first_neighbour_only) {
      probing.set_probe_oracle(
          [this](NodeId s, NodeId u) { return u == overlay.neighbors(s)[0]; });
    }
    warmup();
    // Record a few paths for pair 0 so some (pred, succ) counts are > 0.
    for (std::uint32_t k = 1; k <= 5; ++k) {
      const NodeId a = overlay.neighbors(0)[0];
      const NodeId b = overlay.neighbors(a)[0];
      history.record_path(0, {0, a, b, 19});
    }
  }

  [[nodiscard]] RoutingContext context(DecisionResources& res) const {
    return RoutingContext{overlay.state(), overlay.links(), quality, Contract{}, 0, 6, 19, res};
  }
};

/// Reference lookahead: best_onward_quality's recursion with every edge
/// quality straight from the evaluator and no memo.
double plain_onward(const RoutingContext& ctx, NodeId from, NodeId pred, std::uint32_t depth) {
  if (depth == 0 || from == ctx.responder) return 0.0;
  double best = 1.0;  // direct delivery to the responder is always available
  for (NodeId c : ctx.nodes.neighbors_of(from)) {
    if (!ctx.nodes.appears_online(c) || c == from) continue;
    const double q =
        ctx.quality.edge_quality(from, c, ctx.responder, ctx.pair, pred, ctx.conn_index);
    best = std::max(best, c == ctx.responder ? q : q + plain_onward(ctx, c, from, depth - 1));
  }
  return best;
}

/// best_onward_quality against plain_onward, bitwise, for every (from, pred)
/// at depths 1-4 under `quality` at connection k; returns the largest
/// depth-1 value seen (above 1.0 only when the loop behind the bound ran).
double check_lookahead_against_plain(const CacheWorld& w, const EdgeQualityEvaluator& quality,
                                     std::uint32_t k) {
  DecisionResources res;
  const RoutingContext ctx{w.overlay.state(), w.overlay.links(), quality, Contract{}, 0, k, 19,
                           res};
  double top = 0.0;
  for (NodeId from = 0; from < w.overlay.size(); ++from) {
    for (NodeId p = 0; p <= w.overlay.size(); ++p) {
      const NodeId pred = p == w.overlay.size() ? kInvalidNode : p;
      for (std::uint32_t depth = 1; depth <= 4; ++depth) {
        const double want = plain_onward(ctx, from, pred, depth);
        DecisionScope scope(res);
        const double got = best_onward_quality(ctx, from, pred, depth);
        EXPECT_EQ(want, got) << "from=" << from << " pred=" << pred << " depth=" << depth
                             << " k=" << k;
        if (depth == 1) top = std::max(top, got);
      }
    }
  }
  return top;
}

/// Reference SPNE hop: the best response restricted to `candidates` over
/// the eager backward-induction table, with SpneRouting's tie-break rule.
HopChoice eager_spne_choice(const RoutingContext& ctx, std::uint32_t stages, NodeId self,
                            NodeId pred, std::span<const NodeId> candidates) {
  const game::PathGameSpec spec = SpneRouting::make_spec(ctx);
  const game::BackwardInductionSolver solver(spec, stages);
  HopChoice best;
  bool have = false;
  for (NodeId j : candidates) {
    double onward = 1.0;
    if (j != ctx.responder) {
      onward = spec.edge_quality(self, j);
      if (stages > 0) onward += solver.decision(j, stages - 1).onward_quality;
    }
    const double u = spec.forwarding_benefit + onward * spec.routing_benefit -
                     spec.cost(self, j);
    const double q =
        ctx.quality.edge_quality(self, j, ctx.responder, ctx.pair, pred, ctx.conn_index);
    if (!have || u > best.utility ||
        (u == best.utility &&
         (q > best.edge_quality || (q == best.edge_quality && j < best.next)))) {
      best = HopChoice{j, u, q};
      have = true;
    }
  }
  return best;
}

}  // namespace

TEST(Lookahead, MemoisedMatchesPlainBitwise) {
  CacheWorld w;
  DecisionResources res;
  const RoutingContext cached = w.context(res);
  for (NodeId from = 0; from < w.overlay.size(); ++from) {
    for (NodeId pred : {kInvalidNode, NodeId{0}, NodeId{3}}) {
      for (std::uint32_t depth : {1u, 2u, 3u}) {
        const double want = plain_onward(cached, from, pred, depth);
        DecisionScope scope(res);
        const double got = best_onward_quality(cached, from, pred, depth);
        EXPECT_EQ(want, got) << "from=" << from << " pred=" << pred << " depth=" << depth;
      }
    }
  }
}

TEST(Lookahead, Model2UtilityMatchesBitwise) {
  CacheWorld w;
  DecisionResources res;
  const RoutingContext cached = w.context(res);
  for (NodeId i = 0; i < w.overlay.size(); ++i) {
    for (NodeId j : w.overlay.neighbors(i)) {
      const double q_ij = w.quality.edge_quality(i, j, 19, 0, kInvalidNode, 6);
      const double onward = j == cached.responder ? 0.0 : plain_onward(cached, j, i, 2);
      const double want = cached.contract.forwarding_benefit +
                          (q_ij + onward) * cached.contract.routing_benefit() -
                          (participation_cost(cached, i) + transmission_cost(cached, i, j));
      DecisionScope scope(res);
      const double got = model2_utility(cached, i, kInvalidNode, j, 3);
      EXPECT_EQ(want, got) << "i=" << i << " j=" << j;
    }
  }
}

TEST(Lookahead, LastLevelIsDirectDeliveryUnderPaperWeights) {
  // w_s + w_a = 1 and the recorded history keeps sigma <= 1 at k = 1 and at
  // k >= 6, so depth 1 is exactly the quality-1 direct edge everywhere.
  CacheWorld w;
  for (std::uint32_t k : {1u, 6u, 11u}) {
    DecisionResources res;
    const RoutingContext ctx{w.overlay.state(), w.overlay.links(), w.quality, Contract{}, 0, k,
                             19, res};
    for (NodeId from = 0; from < w.overlay.size(); ++from) {
      if (from == ctx.responder) continue;
      for (NodeId p = 0; p <= w.overlay.size(); ++p) {
        const NodeId pred = p == w.overlay.size() ? kInvalidNode : p;
        EXPECT_EQ(best_onward_quality(ctx, from, pred, 1), 1.0)
            << "from=" << from << " pred=" << pred << " k=" << k;
      }
    }
  }
}

TEST(Lookahead, FallbackMatchesPlainWhenWeightsSumAboveOne) {
  CacheWorld w(/*first_neighbour_only=*/true);
  const EdgeQualityEvaluator quality(w.probing, w.history, QualityWeights{0.75, 0.5});
  EXPECT_GT(check_lookahead_against_plain(w, quality, 6), 1.0);
}

TEST(Lookahead, FallbackMatchesPlainWithNegativeWeight) {
  CacheWorld w;
  const EdgeQualityEvaluator quality(w.probing, w.history, QualityWeights{3.0, -2.0});
  EXPECT_GT(check_lookahead_against_plain(w, quality, 6), 1.0);
}

TEST(Lookahead, FallbackMatchesPlainWhenSelectivityExceedsOne) {
  // (pair 0, pred 0, succ b) is stored five times at a: more than k - 1 = 2.
  CacheWorld w;
  EXPECT_GT(check_lookahead_against_plain(w, w.quality, 3), 1.0);
  // One entry too many at k = 5: sigma = 5/4 scores above 1 once
  // alpha_a(b) = 1.
  CacheWorld skewed(/*first_neighbour_only=*/true);
  EXPECT_GT(check_lookahead_against_plain(skewed, skewed.quality, 5), 1.0);
}

TEST(Lookahead, MatchesPlainUnderSuspicion) {
  CacheWorld w;
  SuspicionTracker suspicion(w.overlay.size());
  for (NodeId v = 0; v < w.overlay.size(); v += 3) {
    suspicion.record_timeout(v);
    if (v % 2 == 0) suspicion.record_timeout(v);
  }
  const EdgeQualityEvaluator quality(w.probing, w.history, QualityWeights{}, &suspicion);
  EXPECT_EQ(check_lookahead_against_plain(w, quality, 6), 1.0);  // the bound holds
  EXPECT_GT(check_lookahead_against_plain(w, quality, 3), 1.0);  // sigma > 1: fallback
}

TEST(Spne, LazySolverMatchesEagerBitwise) {
  CacheWorld w;
  DecisionResources res;
  const RoutingContext cached = w.context(res);
  SpneRouting spne(3);
  auto stream = w.root.child("spne-picks");
  for (NodeId self = 0; self < w.overlay.size(); ++self) {
    if (self == cached.responder) continue;
    std::vector<NodeId> candidates;
    for (NodeId c : w.overlay.neighbors(self)) {
      if (c != self && w.overlay.is_online(c)) candidates.push_back(c);
    }
    if (candidates.empty()) continue;
    const HopChoice want = eager_spne_choice(cached, 3, self, kInvalidNode, candidates);
    const HopChoice got = spne.choose(cached, self, kInvalidNode, candidates, stream);
    EXPECT_EQ(want.next, got.next) << "self=" << self;
    EXPECT_EQ(want.utility, got.utility) << "self=" << self;
    EXPECT_EQ(want.edge_quality, got.edge_quality) << "self=" << self;
  }
}

TEST(Spne, LazySolverMatchesEagerAtStageZero) {
  CacheWorld w;
  DecisionResources res;
  const RoutingContext cached = w.context(res);
  SpneRouting spne(0);
  auto stream = w.root.child("spne0-picks");
  const NodeId self = 0;
  std::vector<NodeId> candidates(w.overlay.neighbors(self).begin(),
                                 w.overlay.neighbors(self).end());
  const HopChoice want = eager_spne_choice(cached, 0, self, kInvalidNode, candidates);
  const HopChoice got = spne.choose(cached, self, kInvalidNode, candidates, stream);
  EXPECT_EQ(want.next, got.next);
  EXPECT_EQ(want.utility, got.utility);
  EXPECT_EQ(want.edge_quality, got.edge_quality);
}
