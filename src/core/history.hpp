// Connection-history profiles (paper §2.3, Table 1).
//
// Every node s records, per connection that passed through it, the tuple
// (pair, predecessor, successor). The history for the k-th connection of a
// set, H^{k-1}(s), comprises the outgoing edges of s on pi^1..pi^{k-1}.
// Because entries are keyed by predecessor too, a node distinguishes its
// outgoing edges for different positions it occupied on the same path.
//
// Selectivity of edge (s, v) at connection k (conditioned on the current
// predecessor) is
//   sigma(s, v) = #entries{(s -> v) | same pair, same predecessor} / (k - 1).
//
// Index structure (the decision-stack hot path): counts are kept in a
// packed-key flat hash map keyed by (pair, predecessor, successor), with a
// second O(1)-maintained map of per-(pair, predecessor) denominators — the
// total number of stored entries for that pair/position. A zero denominator
// proves sigma(s, v) == 0 for *every* successor v, which lets the
// memoised lookahead collapse predecessor-distinct states that are
// numerically identical (see core/utility and core/decision_scratch), and
// a denominator of at most k - 1 bounds sigma by 1 (see
// EdgeQualityEvaluator::Position, which also skips the per-successor count
// probe when the denominator is zero).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/flat_hash.hpp"
#include "net/ids.hpp"

namespace p2panon::core {

/// History profile for one node. Append-only: H^{k-1}(s) keeps every past
/// connection of the set (Table 1). Only the count index is stored; the
/// queries never need the entries themselves. HistoryStore::record_path is
/// the one writer.
class HistoryProfile {
 public:
  // The three queries are defined here so that the decision stack's scoring
  // loops inline them.

  /// Number of stored entries matching (pair, predecessor, successor).
  [[nodiscard]] std::size_t count(net::PairId pair, net::NodeId predecessor,
                                  net::NodeId successor) const {
    const std::uint32_t* c = counts_.find(edge_key(pair, predecessor, successor));
    return c == nullptr ? 0 : *c;
  }

  /// Number of stored entries matching (pair, predecessor) across all
  /// successors — the O(1) denominator of history-conditioned statistics.
  /// Zero means selectivity is 0 for every successor at this position.
  [[nodiscard]] std::size_t position_count(net::PairId pair, net::NodeId predecessor) const {
    const std::uint32_t* d = counts_.find(position_key(pair, predecessor));
    return d == nullptr ? 0 : *d;
  }

  /// sigma(s, v) for the k-th connection (k is 1-based; k == 1 has no
  /// history and yields 0).
  [[nodiscard]] double selectivity(net::PairId pair, net::NodeId predecessor,
                                   net::NodeId successor, std::uint32_t k) const {
    if (k <= 1) return 0.0;
    const auto c = count(pair, predecessor, successor);
    return static_cast<double>(c) / static_cast<double>(k - 1);
  }

  /// Number of recorded entries.
  [[nodiscard]] std::size_t size() const noexcept { return entries_; }

 private:
  friend class HistoryStore;

  /// Store one (pair, predecessor, successor) entry.
  void record(net::PairId pair, net::NodeId predecessor, net::NodeId successor);

  [[nodiscard]] static sim::PackedKey edge_key(net::PairId pair, net::NodeId predecessor,
                                               net::NodeId successor) noexcept {
    return sim::PackedKey::of(pair, predecessor, successor);
  }
  [[nodiscard]] static sim::PackedKey position_key(net::PairId pair,
                                                   net::NodeId predecessor) noexcept {
    // Disambiguated from edge keys by the successor slot no real edge uses:
    // kInvalidNode never appears as a stored successor.
    return sim::PackedKey::of(pair, predecessor, net::kInvalidNode, 1);
  }

  std::size_t entries_ = 0;
  /// Edge-key -> multiplicity, position-key -> denominator; one table keeps
  /// both so a record touches a single allocation-free index.
  sim::PackedFlatMap<std::uint32_t> counts_;
};

/// History profiles for all nodes of an overlay, indexed by node id.
class HistoryStore {
 public:
  explicit HistoryStore(std::size_t node_count) : profiles_(node_count) {}

  [[nodiscard]] HistoryProfile& at(net::NodeId id) { return profiles_.at(id); }
  [[nodiscard]] const HistoryProfile& at(net::NodeId id) const { return profiles_.at(id); }
  [[nodiscard]] std::size_t node_count() const noexcept { return profiles_.size(); }

  /// Record a completed path of `pair`: for every forwarder position, store
  /// (pair, predecessor, successor) at that forwarder. `path` is the full
  /// node sequence initiator..responder. The only way to write a profile.
  void record_path(net::PairId pair, const std::vector<net::NodeId>& path);

  [[nodiscard]] std::size_t total_entries() const;

 private:
  std::vector<HistoryProfile> profiles_;
};

}  // namespace p2panon::core
