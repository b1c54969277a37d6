// Struct-of-arrays node state and shard partitioning.
//
// The hot loops of the system — probing sweeps, edge-quality scoring,
// candidate scans — touch one field of *many* nodes, not many fields of one
// node. An array-of-structs layout (vector<Node> with an embedded neighbour
// vector per node) makes every such sweep a pointer chase; the SoA layout
// below keeps each field contiguous and the neighbour table a single
// fixed-stride CSR block, so sweeps stream through memory.
//
// Shard-local views: nodes are partitioned into contiguous id ranges, one
// per shard (ShardPartition). A shard's slice of every column is then itself
// contiguous, which is what lets the sharded engine hand each shard a
// mutable window of the same arrays with no false sharing beyond the two
// boundary cache lines.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "net/churn.hpp"
#include "net/ids.hpp"
#include "sim/rng.hpp"

namespace p2panon::net {

/// Behavioural class of a peer. Malicious peers follow the paper's adversary
/// model: they participate but route *randomly*, since their objective is
/// breaking anonymity, not income (§2.4).
enum class NodeKind : std::uint8_t { kGood, kMalicious };

/// Believed liveness, read from two byte columns: a node appears online when
/// either byte is set. Decisions read liveness only through this view, so
/// every runner's decisions run the same code over its own columns: the
/// serial overlay's (online, crashed), where a silent crash stays invisible,
/// or the K > 1 paper runner's (published, crashed), whose crashed column is
/// all zero.
struct LivenessView {
  const std::uint8_t* online = nullptr;
  const std::uint8_t* crashed = nullptr;

  [[nodiscard]] bool appears_online(NodeId id) const noexcept {
    return online[id] != 0 || crashed[id] != 0;
  }
};

/// Columnar node state, one column per field. The neighbour table is CSR
/// with a fixed stride of `degree` — entries are replaced in place (never
/// removed) when a neighbour departs for good, so the stride is an
/// invariant.
struct NodeStateSoA {
  std::size_t degree = 0;

  std::vector<NodeKind> kind;
  std::vector<std::uint8_t> online;
  std::vector<std::uint8_t> crashed;
  std::vector<std::uint8_t> departed;  ///< final departure happened; never returns
  /// Session epoch for pending leave events: bumped whenever a session ends
  /// or begins outside the normal churn draw flow (crash, recovery, forced
  /// offline), so a leave scheduled for a dead session cannot fire into a
  /// later one. Never bumped on the ordinary join/leave path, which keeps
  /// fault-free runs bitwise identical.
  std::vector<std::uint64_t> leave_epoch;
  std::vector<double> participation_cost;  ///< C_p (paper §2.4.1)
  /// Ground-truth availability bookkeeping (Rhea et al. definition).
  std::vector<AvailabilityTracker> tracker;
  /// Fixed-stride CSR neighbour table, size() * degree entries.
  std::vector<NodeId> neighbors;

  [[nodiscard]] std::size_t size() const noexcept { return kind.size(); }

  /// Allocate all columns for `n` nodes of degree `d`, zero-initialised.
  void resize(std::size_t n, std::size_t d) {
    degree = d;
    kind.assign(n, NodeKind::kGood);
    online.assign(n, 0);
    crashed.assign(n, 0);
    departed.assign(n, 0);
    leave_epoch.assign(n, 0);
    participation_cost.assign(n, 0.0);
    tracker.assign(n, AvailabilityTracker{});
    neighbors.assign(n * d, kInvalidNode);
  }

  [[nodiscard]] std::span<NodeId> neighbors_of(NodeId id) noexcept {
    return {neighbors.data() + static_cast<std::size_t>(id) * degree, degree};
  }
  [[nodiscard]] std::span<const NodeId> neighbors_of(NodeId id) const noexcept {
    return {neighbors.data() + static_cast<std::size_t>(id) * degree, degree};
  }

  [[nodiscard]] bool is_good(NodeId id) const noexcept {
    return kind[id] == NodeKind::kGood;
  }
  [[nodiscard]] bool is_malicious(NodeId id) const noexcept {
    return kind[id] == NodeKind::kMalicious;
  }
  /// What the rest of the overlay *believes* about liveness: a silent crash
  /// is invisible (the node still appears up), a graceful leave is not.
  [[nodiscard]] LivenessView believed() const noexcept {
    return {online.data(), crashed.data()};
  }
  [[nodiscard]] bool appears_online(NodeId id) const noexcept {
    return believed().appears_online(id);
  }
};

/// Random d-regular-out neighbour selection (paper §3): every node, in id
/// order, draws `state.degree` distinct picks over [0, N-1) from the one
/// shared `stream`, mapped onto V \ {id} and written straight into its CSR
/// row. The single site shared by the serial overlay and both sharded
/// runners, so all three build the same graph from the same stream.
void sample_neighbors(NodeStateSoA& state, sim::rng::Stream stream);

/// Node kinds and costs (paper §3): every node gets participation cost
/// `participation_cost`, and round(f * N) nodes, drawn uniformly from
/// `stream`, turn malicious. The single site shared by the serial overlay
/// and the K > 1 paper runner.
void assign_node_kinds(NodeStateSoA& state, double malicious_fraction, double participation_cost,
                       sim::rng::Stream stream);

/// Contiguous node-id partition into K shards: shard s owns
/// [range(s).begin, range(s).end). Remainder nodes go to the low shards so
/// sizes differ by at most one. Contiguity is load-bearing — it is what
/// makes every per-shard column slice a single memory window.
class ShardPartition {
 public:
  struct Range {
    NodeId begin = 0;
    NodeId end = 0;
    [[nodiscard]] std::size_t size() const noexcept { return end - begin; }
  };

  ShardPartition() : starts_{0, 0} {}

  ShardPartition(std::size_t node_count, std::uint32_t shard_count) {
    assert(shard_count >= 1);
    starts_.reserve(shard_count + 1);
    const std::size_t base = node_count / shard_count;
    const std::size_t extra = node_count % shard_count;
    NodeId at = 0;
    for (std::uint32_t s = 0; s < shard_count; ++s) {
      starts_.push_back(at);
      at += static_cast<NodeId>(base + (s < extra ? 1 : 0));
    }
    starts_.push_back(at);
  }

  [[nodiscard]] std::uint32_t shard_count() const noexcept {
    return static_cast<std::uint32_t>(starts_.size() - 1);
  }
  [[nodiscard]] std::size_t node_count() const noexcept { return starts_.back(); }

  [[nodiscard]] Range range(std::uint32_t s) const noexcept {
    return Range{starts_[s], starts_[s + 1]};
  }

  /// Owning shard of a node id. O(1): with near-equal contiguous ranges the
  /// guess id / ceil(N/K) lands on the right shard or one below.
  [[nodiscard]] std::uint32_t shard_of(NodeId id) const noexcept {
    const std::uint32_t k = shard_count();
    const std::size_t n = node_count();
    std::uint32_t s = static_cast<std::uint32_t>(
        (static_cast<std::size_t>(id) * k) / (n == 0 ? 1 : n));
    if (s >= k) s = k - 1;
    while (id < starts_[s]) --s;
    while (id >= starts_[s + 1]) ++s;
    return s;
  }

 private:
  std::vector<NodeId> starts_;  // size K+1; starts_[K] == node_count
};

}  // namespace p2panon::net
