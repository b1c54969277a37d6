// Differential tests of the order-statistic live-id index against the naive
// ascending filter it replaces in the overlay's replacement draw.
#include "net/live_ids.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/rng.hpp"

using namespace p2panon::net;
namespace rng = p2panon::sim::rng;

namespace {

/// The reference: live ids outside `excluded`, ascending, built by a scan.
std::vector<NodeId> naive_candidates(const std::vector<std::uint8_t>& departed,
                                     const std::vector<NodeId>& excluded) {
  std::vector<NodeId> out;
  for (NodeId c = 0; c < departed.size(); ++c) {
    if (departed[c] != 0) continue;
    if (std::find(excluded.begin(), excluded.end(), c) != excluded.end()) continue;
    out.push_back(c);
  }
  return out;
}

}  // namespace

TEST(LiveIds, RankAndSelectMatchTheColumn) {
  rng::Stream stream(11);
  for (std::size_t n = 1; n <= 300; ++n) {
    std::vector<std::uint8_t> departed(n);
    const double p = stream.next_double();
    for (auto& d : departed) d = stream.bernoulli(p) ? 1 : 0;
    LiveIds live(departed);
    std::vector<NodeId> ids;
    for (NodeId i = 0; i < n; ++i) {
      EXPECT_EQ(live.rank(i), ids.size()) << "n " << n << " id " << i;
      if (departed[i] == 0) ids.push_back(i);
    }
    ASSERT_EQ(live.size(), ids.size());
    for (std::size_t k = 0; k < ids.size(); ++k) EXPECT_EQ(live.select(k), ids[k]);
  }
}

TEST(LiveIds, SelectOutsideMatchesNaiveFilter) {
  rng::Stream stream(12);
  std::size_t cases = 0;
  std::size_t empty = 0;
  for (std::size_t n = 2; n <= 300; ++n) {
    for (int trial = 0; trial < 4; ++trial) {
      std::vector<std::uint8_t> departed(n);
      const double p = trial == 0 ? 0.0 : stream.next_double();
      for (auto& d : departed) d = stream.bernoulli(p) ? 1 : 0;
      LiveIds live(departed);

      // Flip some ids through set() so the tree is also checked after
      // incremental updates, resurrections included.
      for (int flips = 0; flips < 8; ++flips) {
        const auto id = static_cast<NodeId>(stream.below(n));
        departed[id] ^= 1;
        live.set(id, departed[id] == 0);
      }

      // Excluded: up to 12 random ids, some departed, some repeated.
      std::vector<NodeId> excluded;
      const std::size_t want = stream.below(std::min<std::size_t>(n, 12) + 1);
      for (std::size_t i = 0; i < want; ++i) {
        excluded.push_back(static_cast<NodeId>(stream.below(n)));
        if (stream.bernoulli(0.3)) excluded.push_back(excluded.back());
      }
      const auto expected = naive_candidates(departed, excluded);

      std::vector<NodeId> normalised = excluded;
      const std::size_t count = live.count_outside(normalised);
      ASSERT_EQ(count, expected.size()) << "n " << n << " trial " << trial;
      ASSERT_TRUE(std::is_sorted(normalised.begin(), normalised.end()));
      for (NodeId e : normalised) EXPECT_EQ(departed[e], 0);
      for (std::size_t k = 0; k < count; ++k) {
        ASSERT_EQ(live.select_outside(k, normalised), expected[k])
            << "n " << n << " trial " << trial << " k " << k;
      }
      ++cases;
      empty += count == 0 ? 1 : 0;
    }
  }
  EXPECT_EQ(cases, 299u * 4u);
  EXPECT_GT(empty, 0u) << "the no-candidate case never ran";
}
