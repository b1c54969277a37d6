#include "core/suspicion.hpp"

#include <cassert>

namespace p2panon::core {

SuspicionTracker::SuspicionTracker(std::size_t node_count, double penalty)
    : counts_(node_count, 0), penalty_(penalty) {
  assert(penalty > 0.0 && penalty <= 1.0);
}

void SuspicionTracker::record_timeout(net::NodeId suspect) {
  auto& c = counts_.at(suspect);
  if (c < kMaxCount) ++c;
}

void SuspicionTracker::record_success(net::NodeId node) {
  counts_.at(node) >>= 1;
}

double SuspicionTracker::availability_factor(net::NodeId v) const {
  double factor = 1.0;
  // Iterative multiply (counts are <= kMaxCount): bitwise reproducible
  // without depending on the libm pow implementation.
  for (std::uint32_t i = 0; i < counts_.at(v); ++i) factor *= penalty_;
  return factor;
}

}  // namespace p2panon::core
