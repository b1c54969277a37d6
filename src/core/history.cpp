#include "core/history.hpp"

#include <cassert>

namespace p2panon::core {

void HistoryProfile::remove_from_index(const HistoryEntry& entry) {
  std::uint32_t* c = counts_.find(edge_key(entry.pair, entry.predecessor, entry.successor));
  assert(c != nullptr && *c > 0);
  if (--*c == 0) counts_.erase(edge_key(entry.pair, entry.predecessor, entry.successor));
  std::uint32_t* d = counts_.find(position_key(entry.pair, entry.predecessor));
  assert(d != nullptr && *d > 0);
  if (--*d == 0) counts_.erase(position_key(entry.pair, entry.predecessor));
}

void HistoryProfile::record(const HistoryEntry& entry) {
  if (capacity_ != 0 && ring_.size() == capacity_) {
    // FIFO: the oldest entry leaves — overwrite it in place, O(1).
    remove_from_index(ring_[head_]);
    ring_[head_] = entry;
    head_ = (head_ + 1) % capacity_;
  } else {
    ring_.push_back(entry);
  }
  ++counts_.get_or_insert(edge_key(entry.pair, entry.predecessor, entry.successor));
  ++counts_.get_or_insert(position_key(entry.pair, entry.predecessor));
}

std::vector<HistoryEntry> HistoryProfile::entries() const {
  std::vector<HistoryEntry> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

void HistoryProfile::clear() {
  ring_.clear();
  head_ = 0;
  counts_.clear();
}

HistoryStore::HistoryStore(std::size_t node_count, std::size_t per_node_capacity) {
  profiles_.reserve(node_count);
  for (std::size_t i = 0; i < node_count; ++i) {
    profiles_.emplace_back(per_node_capacity);
  }
}

void HistoryStore::record_path(net::PairId pair, std::uint32_t conn_index,
                               const std::vector<net::NodeId>& path) {
  assert(path.size() >= 2 && "path must contain at least initiator and responder");
  // Positions 1..n-2 are forwarders; each stores its predecessor/successor.
  for (std::size_t i = 1; i + 1 < path.size(); ++i) {
    profiles_.at(path[i]).record(
        HistoryEntry{pair, conn_index, path[i - 1], path[i + 1]});
  }
}

std::size_t HistoryStore::total_entries() const {
  std::size_t n = 0;
  for (const auto& p : profiles_) n += p.size();
  return n;
}

}  // namespace p2panon::core
