// Order statistics over the live (not finally departed) node ids.
//
// A Fenwick tree over the 0/1 column "id is live" answers rank (how many
// live ids lie below an id) and select (the k-th live id, ascending) in
// O(log N). The overlay uses it to draw a departed neighbour's replacement
// uniformly from "live ids outside a small excluded set" without
// materialising that set: the k-th element of the ascending candidate list
// is the k-th live id after stepping past each excluded id that precedes it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/ids.hpp"

namespace p2panon::net {

class LiveIds {
 public:
  LiveIds() = default;

  /// Index `departed.size()` ids; id i is live iff departed[i] == 0.
  explicit LiveIds(std::span<const std::uint8_t> departed);

  /// Mark `id` live or not. O(log N); a no-op when the state is unchanged.
  void set(NodeId id, bool live);

  [[nodiscard]] bool contains(NodeId id) const noexcept { return live_[id] != 0; }
  [[nodiscard]] std::size_t size() const noexcept { return count_; }

  /// Number of live ids strictly below `id`.
  [[nodiscard]] std::size_t rank(NodeId id) const noexcept;

  /// The k-th live id in ascending order (0-based). Requires k < size().
  [[nodiscard]] NodeId select(std::size_t k) const noexcept;

  /// Normalise `excluded` in place to its distinct live ids, ascending, and
  /// return how many live ids lie outside it. `excluded` may hold
  /// duplicates and non-live ids.
  [[nodiscard]] std::size_t count_outside(std::vector<NodeId>& excluded) const;

  /// The k-th live id outside `excluded` in ascending order (0-based).
  /// `excluded` must be normalised by count_outside(), and k must be below
  /// the count it returned.
  [[nodiscard]] NodeId select_outside(std::size_t k,
                                      std::span<const NodeId> excluded) const noexcept;

 private:
  std::vector<std::uint8_t> live_;
  std::vector<std::uint32_t> tree_;  ///< 1-based Fenwick sums over live_
  std::size_t count_ = 0;
};

}  // namespace p2panon::net
