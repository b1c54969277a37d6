#include "core/history.hpp"

#include <cassert>

namespace p2panon::core {

void HistoryProfile::record(net::PairId pair, net::NodeId predecessor,
                            net::NodeId successor) {
  ++entries_;
  ++counts_.get_or_insert(edge_key(pair, predecessor, successor));
  ++counts_.get_or_insert(position_key(pair, predecessor));
}

void HistoryStore::record_path(net::PairId pair, const std::vector<net::NodeId>& path) {
  assert(path.size() >= 2 && "path must contain at least initiator and responder");
  // Positions 1..n-2 are forwarders; each stores its predecessor/successor.
  for (std::size_t i = 1; i + 1 < path.size(); ++i) {
    profiles_.at(path[i]).record(pair, path[i - 1], path[i + 1]);
  }
}

std::size_t HistoryStore::total_entries() const {
  std::size_t n = 0;
  for (const auto& p : profiles_) n += p.size();
  return n;
}

}  // namespace p2panon::core
