#include "core/history.hpp"

#include <gtest/gtest.h>

using namespace p2panon::core;
using p2panon::net::NodeId;
using p2panon::net::PairId;

TEST(HistoryProfile, EmptyHasZeroSelectivity) {
  HistoryProfile h;
  EXPECT_EQ(h.size(), 0u);
  EXPECT_DOUBLE_EQ(h.selectivity(1, 2, 3, 5), 0.0);
  EXPECT_EQ(h.count(1, 2, 3), 0u);
}

TEST(HistoryProfile, RecordAndCount) {
  HistoryProfile h;
  h.record({1, 1, 10, 20});
  h.record({1, 2, 10, 20});
  h.record({1, 3, 10, 30});
  EXPECT_EQ(h.count(1, 10, 20), 2u);
  EXPECT_EQ(h.count(1, 10, 30), 1u);
  EXPECT_EQ(h.size(), 3u);
}

TEST(HistoryProfile, SelectivityDefinition) {
  HistoryProfile h;
  // Connections 1..4 all used successor 20 from predecessor 10.
  for (std::uint32_t k = 1; k <= 4; ++k) h.record({7, k, 10, 20});
  // For connection k = 5: sigma = 4 / (5-1) = 1.
  EXPECT_DOUBLE_EQ(h.selectivity(7, 10, 20, 5), 1.0);
  // For connection k = 9: sigma = 4 / 8 = 0.5.
  EXPECT_DOUBLE_EQ(h.selectivity(7, 10, 20, 9), 0.5);
}

TEST(HistoryProfile, FirstConnectionHasNoHistory) {
  HistoryProfile h;
  h.record({7, 1, 10, 20});
  EXPECT_DOUBLE_EQ(h.selectivity(7, 10, 20, 1), 0.0);
}

TEST(HistoryProfile, KeyedByPredecessor) {
  // The same successor reached from different predecessors is a different
  // edge position (paper: a node differentiates positions on the same path).
  HistoryProfile h;
  h.record({7, 1, 10, 20});
  h.record({7, 2, 11, 20});
  EXPECT_EQ(h.count(7, 10, 20), 1u);
  EXPECT_EQ(h.count(7, 11, 20), 1u);
  EXPECT_DOUBLE_EQ(h.selectivity(7, 10, 20, 3), 0.5);
}

TEST(HistoryProfile, KeyedByPair) {
  HistoryProfile h;
  h.record({7, 1, 10, 20});
  h.record({8, 1, 10, 20});
  EXPECT_EQ(h.count(7, 10, 20), 1u);
  EXPECT_EQ(h.count(8, 10, 20), 1u);
}

TEST(HistoryProfile, ClearResets) {
  HistoryProfile h;
  h.record({1, 1, 10, 20});
  h.clear();
  EXPECT_EQ(h.size(), 0u);
  EXPECT_EQ(h.count(1, 10, 20), 0u);
  EXPECT_EQ(h.position_count(1, 10), 0u);
}

TEST(HistoryStore, RecordPathStoresPredecessorSuccessor) {
  HistoryStore store(6);
  // Path 0 -> 2 -> 3 -> 5 for pair 9, connection 1.
  store.record_path(9, 1, {0, 2, 3, 5});
  EXPECT_EQ(store.at(2).count(9, 0, 3), 1u);
  EXPECT_EQ(store.at(3).count(9, 2, 5), 1u);
  // Endpoints store nothing.
  EXPECT_EQ(store.at(0).size(), 0u);
  EXPECT_EQ(store.at(5).size(), 0u);
  EXPECT_EQ(store.total_entries(), 2u);
}

TEST(HistoryStore, DirectPathStoresNothing) {
  HistoryStore store(4);
  store.record_path(1, 1, {0, 3});
  EXPECT_EQ(store.total_entries(), 0u);
}

TEST(HistoryStore, RepeatedForwarderGetsBothPositions) {
  HistoryStore store(5);
  // 0 -> 1 -> 2 -> 1 -> 4: node 1 stores two entries with distinct preds.
  store.record_path(3, 1, {0, 1, 2, 1, 4});
  EXPECT_EQ(store.at(1).count(3, 0, 2), 1u);
  EXPECT_EQ(store.at(1).count(3, 2, 4), 1u);
  EXPECT_EQ(store.at(2).count(3, 1, 1), 1u);
}

TEST(HistoryStore, AccumulatesAcrossConnections) {
  HistoryStore store(5);
  for (std::uint32_t k = 1; k <= 10; ++k) store.record_path(1, k, {0, 2, 4});
  EXPECT_EQ(store.at(2).count(1, 0, 4), 10u);
  EXPECT_DOUBLE_EQ(store.at(2).selectivity(1, 0, 4, 11), 1.0);
}

TEST(HistoryProfile, PositionCountSumsOverSuccessors) {
  HistoryProfile h;
  EXPECT_EQ(h.position_count(1, 10), 0u);
  h.record({1, 1, 10, 20});
  h.record({1, 2, 10, 21});
  h.record({1, 3, 11, 20});
  h.record({2, 1, 10, 20});  // different pair: separate denominator
  EXPECT_EQ(h.position_count(1, 10), 2u);
  EXPECT_EQ(h.position_count(1, 11), 1u);
  EXPECT_EQ(h.position_count(2, 10), 1u);
  EXPECT_EQ(h.position_count(2, 11), 0u);
}
