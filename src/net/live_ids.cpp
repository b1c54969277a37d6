#include "net/live_ids.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace p2panon::net {

namespace {
constexpr std::size_t lowbit(std::size_t i) noexcept { return i & (~i + 1); }
}  // namespace

LiveIds::LiveIds(std::span<const std::uint8_t> departed)
    : live_(departed.size()), tree_(departed.size() + 1, 0) {
  const std::size_t n = departed.size();
  // O(N) build: each node's partial sum is complete once every lower index
  // has pushed its own into its Fenwick parent.
  for (std::size_t i = 1; i <= n; ++i) {
    live_[i - 1] = departed[i - 1] == 0 ? 1 : 0;
    count_ += live_[i - 1];
    tree_[i] += live_[i - 1];
    if (i + lowbit(i) <= n) tree_[i + lowbit(i)] += tree_[i];
  }
}

void LiveIds::set(NodeId id, bool live) {
  const std::uint8_t v = live ? 1 : 0;
  if (live_.at(id) == v) return;
  live_[id] = v;
  // Unsigned wrap-around makes the decrement an add of 2^32 - 1.
  const std::uint32_t delta = live ? 1u : ~0u;
  for (std::size_t i = static_cast<std::size_t>(id) + 1; i < tree_.size(); i += lowbit(i)) {
    tree_[i] += delta;
  }
  count_ = live ? count_ + 1 : count_ - 1;
}

std::size_t LiveIds::rank(NodeId id) const noexcept {
  std::size_t sum = 0;
  for (std::size_t i = id; i > 0; i -= lowbit(i)) sum += tree_[i];
  return sum;
}

NodeId LiveIds::select(std::size_t k) const noexcept {
  assert(k < count_);
  // Descend to the largest prefix length whose live count is <= k; the id
  // right after that prefix is the k-th live id.
  std::size_t pos = 0;
  for (std::size_t step = std::bit_floor(live_.size()); step > 0; step >>= 1) {
    if (pos + step < tree_.size() && tree_[pos + step] <= k) {
      pos += step;
      k -= tree_[pos];
    }
  }
  return static_cast<NodeId>(pos);
}

std::size_t LiveIds::count_outside(std::vector<NodeId>& excluded) const {
  std::sort(excluded.begin(), excluded.end());
  excluded.erase(std::unique(excluded.begin(), excluded.end()), excluded.end());
  std::erase_if(excluded, [this](NodeId id) { return !contains(id); });
  return count_ - excluded.size();
}

NodeId LiveIds::select_outside(std::size_t k, std::span<const NodeId> excluded) const noexcept {
  // Walk the excluded ids in ascending order: each one whose live rank is
  // <= k sits at or before the answer, so the answer is one live id later.
  // Ranks ascend with the ids, so the first rank past k ends the walk.
  for (NodeId e : excluded) {
    if (rank(e) > k) break;
    ++k;
  }
  return select(k);
}

}  // namespace p2panon::net
