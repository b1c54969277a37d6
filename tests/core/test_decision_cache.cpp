// The decision stack's caching layers must be *invisible* except in cost:
// the edge-quality cache, the memoised lookahead and the lazy SPNE solver
// return doubles bitwise identical to independent references that call
// EdgeQualityEvaluator::edge_quality directly — a plain lookahead recursion
// local to this file and game::BackwardInductionSolver over
// SpneRouting::make_spec. These tests pin that contract, plus the
// epoch-invalidation and generation-isolation mechanics that make it safe.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "core/decision_scratch.hpp"
#include "core/edge_quality.hpp"
#include "core/flat_hash.hpp"
#include "core/game.hpp"
#include "core/spne_routing.hpp"
#include "core/utility.hpp"
#include "fixtures.hpp"

using namespace p2panon::core;
using p2panon::net::kInvalidNode;
using p2panon::net::NodeId;
using p2ptest::StableWorld;

TEST(PackedFlatMap, InsertFindErase) {
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
  EXPECT_TRUE(m.erase(PackedKey::of(1, 2, 3)));
  EXPECT_FALSE(m.erase(PackedKey::of(1, 2, 3)));
  EXPECT_EQ(m.find(PackedKey::of(1, 2, 3)), nullptr);
  EXPECT_EQ(m.size(), 1u);
}

TEST(PackedFlatMap, SurvivesGrowthAndChurn) {
  // Many inserts force several growth steps; interleaved erases exercise
  // backward-shift deletion. Mirror against a reference count.
  PackedFlatMap<std::uint32_t> m;
  constexpr std::uint32_t kN = 2000;
  for (std::uint32_t i = 0; i < kN; ++i) m.get_or_insert(PackedKey::of(i, i * 7, i % 13)) = i;
  for (std::uint32_t i = 0; i < kN; i += 3) EXPECT_TRUE(m.erase(PackedKey::of(i, i * 7, i % 13)));
  std::size_t present = 0;
  for (std::uint32_t i = 0; i < kN; ++i) {
    const std::uint32_t* v = m.find(PackedKey::of(i, i * 7, i % 13));
    if (i % 3 == 0) {
      EXPECT_EQ(v, nullptr);
    } else {
      ASSERT_NE(v, nullptr);
      EXPECT_EQ(*v, i);
      ++present;
    }
  }
  EXPECT_EQ(m.size(), present);
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
  CacheWorld() : StableWorld(/*seed=*/11) {
    warmup();
    // Record a few paths for pair 0 so some (pred, succ) counts are > 0.
    for (std::uint32_t k = 1; k <= 5; ++k) {
      const NodeId a = overlay.neighbors(0)[0];
      const NodeId b = overlay.neighbors(a)[0];
      history.record_path(0, k, {0, a, b, 19});
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

TEST(EdgeQualityCache, HitsReturnBitwiseIdenticalValues) {
  CacheWorld w;
  EdgeQualityCache cache;
  for (int round = 0; round < 3; ++round) {
    for (NodeId s = 0; s < w.overlay.size(); ++s) {
      for (NodeId v : w.overlay.neighbors(s)) {
        for (NodeId pred : {kInvalidNode, NodeId{0}, v}) {
          const double direct = w.quality.edge_quality(s, v, 19, 0, pred, 6);
          const double cached = cache.get_or_compute(w.quality, s, v, 19, 0, pred, 6);
          EXPECT_EQ(direct, cached) << "s=" << s << " v=" << v << " pred=" << pred;
        }
      }
    }
  }
  EXPECT_GT(cache.hits(), cache.misses()) << "repeat rounds should be served from cache";
}

TEST(EdgeQualityCache, HistoryEpochInvalidates) {
  CacheWorld w;
  EdgeQualityCache cache;
  const NodeId s = w.overlay.neighbors(0)[0];
  const NodeId v = w.overlay.neighbors(s)[0];
  const double before = cache.get_or_compute(w.quality, s, v, 19, 0, 0, 6);
  EXPECT_EQ(before, w.quality.edge_quality(s, v, 19, 0, 0, 6));
  // New history at s changes selectivity; the stale cached value must not
  // come back.
  w.history.record_path(0, 6, {0, s, v, 19});
  const double after = cache.get_or_compute(w.quality, s, v, 19, 0, 0, 6);
  EXPECT_EQ(after, w.quality.edge_quality(s, v, 19, 0, 0, 6));
  EXPECT_NE(before, after);
}

TEST(EdgeQualityCache, ProbingEpochInvalidates) {
  CacheWorld w;
  EdgeQualityCache cache;
  const NodeId s = 0;
  const NodeId v = w.overlay.neighbors(s)[0];
  const double before = cache.get_or_compute(w.quality, s, v, 19, 1, kInvalidNode, 2);
  // Let more probe periods elapse: availability estimates move, epochs bump.
  w.simulator.run_until(w.simulator.now() + p2ptest::sim::hours(1.0));
  const double fresh = w.quality.edge_quality(s, v, 19, 1, kInvalidNode, 2);
  EXPECT_EQ(cache.get_or_compute(w.quality, s, v, 19, 1, kInvalidNode, 2), fresh);
  (void)before;
}

TEST(EdgeQualityCache, ConnectionIndexRespected) {
  CacheWorld w;
  EdgeQualityCache cache;
  const NodeId s = w.overlay.neighbors(0)[0];
  const NodeId v = w.overlay.neighbors(s)[0];
  // (pair 0, pred 0) has stored history at s, so sigma depends on k and the
  // cache must not serve k=6 answers for k=11.
  const double k6 = cache.get_or_compute(w.quality, s, v, 19, 0, 0, 6);
  const double k11 = cache.get_or_compute(w.quality, s, v, 19, 0, 0, 11);
  EXPECT_EQ(k6, w.quality.edge_quality(s, v, 19, 0, 0, 6));
  EXPECT_EQ(k11, w.quality.edge_quality(s, v, 19, 0, 0, 11));
  EXPECT_NE(k6, k11);
}

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
