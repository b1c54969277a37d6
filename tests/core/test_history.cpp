#include "core/history.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <vector>

#include "sim/rng.hpp"

using namespace p2panon::core;
using p2panon::net::NodeId;
using p2panon::net::PairId;

namespace {

/// Node 0 of a one-node store: every profile test writes it through 3-node
/// paths {predecessor, 0, successor}. Endpoint ids need no profile of their
/// own, since record_path writes at forwarders only.
constexpr NodeId kHolder = 0;

}  // namespace

TEST(HistoryProfile, EmptyHasZeroSelectivity) {
  const HistoryStore store(1);
  const HistoryProfile& h = store.at(kHolder);
  EXPECT_EQ(h.size(), 0u);
  EXPECT_DOUBLE_EQ(h.selectivity(1, 2, 3, 5), 0.0);
  EXPECT_EQ(h.count(1, 2, 3), 0u);
}

TEST(HistoryProfile, RecordAndCount) {
  HistoryStore store(1);
  store.record_path(1, {10, kHolder, 20});
  store.record_path(1, {10, kHolder, 20});
  store.record_path(1, {10, kHolder, 30});
  const HistoryProfile& h = store.at(kHolder);
  EXPECT_EQ(h.count(1, 10, 20), 2u);
  EXPECT_EQ(h.count(1, 10, 30), 1u);
  EXPECT_EQ(h.size(), 3u);
}

TEST(HistoryProfile, SelectivityDefinition) {
  HistoryStore store(1);
  // Connections 1..4 all used successor 20 from predecessor 10.
  for (int k = 1; k <= 4; ++k) store.record_path(7, {10, kHolder, 20});
  const HistoryProfile& h = store.at(kHolder);
  // For connection k = 5: sigma = 4 / (5-1) = 1.
  EXPECT_DOUBLE_EQ(h.selectivity(7, 10, 20, 5), 1.0);
  // For connection k = 9: sigma = 4 / 8 = 0.5.
  EXPECT_DOUBLE_EQ(h.selectivity(7, 10, 20, 9), 0.5);
}

TEST(HistoryProfile, FirstConnectionHasNoHistory) {
  HistoryStore store(1);
  store.record_path(7, {10, kHolder, 20});
  EXPECT_DOUBLE_EQ(store.at(kHolder).selectivity(7, 10, 20, 1), 0.0);
}

TEST(HistoryProfile, KeyedByPredecessor) {
  // The same successor reached from different predecessors is a different
  // edge position (paper: a node differentiates positions on the same path).
  HistoryStore store(1);
  store.record_path(7, {10, kHolder, 20});
  store.record_path(7, {11, kHolder, 20});
  const HistoryProfile& h = store.at(kHolder);
  EXPECT_EQ(h.count(7, 10, 20), 1u);
  EXPECT_EQ(h.count(7, 11, 20), 1u);
  EXPECT_DOUBLE_EQ(h.selectivity(7, 10, 20, 3), 0.5);
}

TEST(HistoryProfile, KeyedByPair) {
  HistoryStore store(1);
  store.record_path(7, {10, kHolder, 20});
  store.record_path(8, {10, kHolder, 20});
  const HistoryProfile& h = store.at(kHolder);
  EXPECT_EQ(h.count(7, 10, 20), 1u);
  EXPECT_EQ(h.count(8, 10, 20), 1u);
}

TEST(HistoryStore, RecordPathStoresPredecessorSuccessor) {
  HistoryStore store(6);
  // Path 0 -> 2 -> 3 -> 5 for pair 9.
  store.record_path(9, {0, 2, 3, 5});
  EXPECT_EQ(store.at(2).count(9, 0, 3), 1u);
  EXPECT_EQ(store.at(3).count(9, 2, 5), 1u);
  // Endpoints store nothing.
  EXPECT_EQ(store.at(0).size(), 0u);
  EXPECT_EQ(store.at(5).size(), 0u);
  EXPECT_EQ(store.total_entries(), 2u);
}

TEST(HistoryStore, DirectPathStoresNothing) {
  HistoryStore store(4);
  store.record_path(1, {0, 3});
  EXPECT_EQ(store.total_entries(), 0u);
}

TEST(HistoryStore, RepeatedForwarderGetsBothPositions) {
  HistoryStore store(5);
  // 0 -> 1 -> 2 -> 1 -> 4: node 1 stores two entries with distinct preds.
  store.record_path(3, {0, 1, 2, 1, 4});
  EXPECT_EQ(store.at(1).count(3, 0, 2), 1u);
  EXPECT_EQ(store.at(1).count(3, 2, 4), 1u);
  EXPECT_EQ(store.at(2).count(3, 1, 1), 1u);
}

TEST(HistoryStore, AccumulatesAcrossConnections) {
  HistoryStore store(5);
  for (int k = 1; k <= 10; ++k) store.record_path(1, {0, 2, 4});
  EXPECT_EQ(store.at(2).count(1, 0, 4), 10u);
  EXPECT_DOUBLE_EQ(store.at(2).selectivity(1, 0, 4, 11), 1.0);
}

TEST(HistoryProfile, PositionCountSumsOverSuccessors) {
  HistoryStore store(1);
  const HistoryProfile& h = store.at(kHolder);
  EXPECT_EQ(h.position_count(1, 10), 0u);
  store.record_path(1, {10, kHolder, 20});
  store.record_path(1, {10, kHolder, 21});
  store.record_path(1, {11, kHolder, 20});
  store.record_path(2, {10, kHolder, 20});  // different pair: separate denominator
  EXPECT_EQ(h.position_count(1, 10), 2u);
  EXPECT_EQ(h.position_count(1, 11), 1u);
  EXPECT_EQ(h.position_count(2, 10), 1u);
  EXPECT_EQ(h.position_count(2, 11), 0u);
}

TEST(HistoryStore, RecordPathMatchesCountModel) {
  // Random walks over six nodes and three pairs: forwarders repeat within a
  // path, paths revisit their initiator, and some are direct. Every query of
  // the store agrees with a map of the (holder, pair, predecessor,
  // successor) writes, one pair past the recorded ones included.
  constexpr NodeId kNodes = 6;
  constexpr PairId kPairs = 3;
  HistoryStore store(kNodes);
  std::map<std::tuple<NodeId, PairId, NodeId, NodeId>, std::size_t> edges;
  std::map<std::tuple<NodeId, PairId, NodeId>, std::size_t> positions;
  std::vector<std::size_t> sizes(kNodes, 0);
  std::size_t total = 0, direct = 0, repeated = 0, cycles = 0;
  p2panon::sim::rng::Stream stream(11);
  for (int n = 0; n < 400; ++n) {
    const auto pair = static_cast<PairId>(stream.below(kPairs));
    std::vector<NodeId> path{static_cast<NodeId>(stream.below(kNodes))};
    const auto forwarders = stream.below(6);
    for (std::uint64_t hop = 0; hop <= forwarders; ++hop) {  // no hop to itself
      path.push_back(static_cast<NodeId>((path.back() + 1 + stream.below(kNodes - 1)) % kNodes));
    }
    store.record_path(pair, path);
    std::vector<NodeId> fwd(path.begin() + 1, path.end() - 1);
    direct += fwd.empty() ? 1 : 0;
    cycles += std::find(fwd.begin(), fwd.end(), path.front()) != fwd.end() ? 1 : 0;
    std::sort(fwd.begin(), fwd.end());
    repeated += std::adjacent_find(fwd.begin(), fwd.end()) != fwd.end() ? 1 : 0;
    for (std::size_t i = 1; i + 1 < path.size(); ++i) {
      ++edges[{path[i], pair, path[i - 1], path[i + 1]}];
      ++positions[{path[i], pair, path[i - 1]}];
      ++sizes[path[i]];
      ++total;
    }
  }
  ASSERT_GT(direct, 0u);
  ASSERT_GT(repeated, 0u);
  ASSERT_GT(cycles, 0u);

  const auto lookup = [](const auto& model, const auto& key) -> std::size_t {
    const auto it = model.find(key);
    return it == model.end() ? 0 : it->second;
  };
  for (NodeId s = 0; s < kNodes; ++s) {
    const HistoryProfile& h = store.at(s);
    EXPECT_EQ(h.size(), sizes[s]) << "holder " << s;
    for (PairId pair = 0; pair <= kPairs; ++pair) {
      for (NodeId pred = 0; pred < kNodes; ++pred) {
        EXPECT_EQ(h.position_count(pair, pred), lookup(positions, std::tuple{s, pair, pred}));
        for (NodeId succ = 0; succ < kNodes; ++succ) {
          EXPECT_EQ(h.count(pair, pred, succ), lookup(edges, std::tuple{s, pair, pred, succ}));
        }
      }
    }
  }
  EXPECT_EQ(store.total_entries(), total);
}
