// Timeout-driven suspicion of silently-failing forwarders.
//
// The fault model removes omniscience: a silently-crashed node still
// *appears* online, so the only evidence against it is behavioural — its
// hops time out. SuspicionTracker turns those timeouts into a per-node
// multiplicative penalty on the probed availability estimate used by edge
// quality: each unresolved timeout halves trust (factor = penalty^count),
// each successfully-confirmed path restores half of it. Without a tracker
// edge quality is bitwise identical to the pre-fault baseline.
#pragma once

#include <cstdint>
#include <vector>

#include "net/ids.hpp"

namespace p2panon::core {

class SuspicionTracker {
 public:
  explicit SuspicionTracker(std::size_t node_count, double penalty = 0.5);

  /// An ack timeout implicates `suspect` (the hop's receiver).
  void record_timeout(net::NodeId suspect);

  /// A completed end-to-end confirmation vouches for `node`; halves its
  /// timeout count (timeouts can be the link's fault, not the node's).
  void record_success(net::NodeId node);

  /// Multiplier in (0, 1] applied to alpha_s(v): penalty^timeout_count.
  [[nodiscard]] double availability_factor(net::NodeId v) const;

  [[nodiscard]] std::uint32_t count(net::NodeId v) const { return counts_.at(v); }

 private:
  /// Counts saturate here; the factor floor penalty^16 is already ~1e-5.
  static constexpr std::uint32_t kMaxCount = 16;

  std::vector<std::uint32_t> counts_;
  double penalty_;
};

}  // namespace p2panon::core
