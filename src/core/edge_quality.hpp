// Edge-quality evaluation (paper §2.3).
//
//   q(s, v) = w_s * sigma(s, v) + w_a * alpha_s(v)
//
// where sigma is the history selectivity of the edge for the current
// connection set and predecessor position, and alpha_s(v) is s's locally
// probed availability estimate of v. The final edge into the responder
// always has quality 1. Path quality is the sum of its edge qualities.
//
// EdgeQualityCache memoises q per (s, v, pair, predecessor) and
// self-invalidates by comparing the history epoch of s's profile and the
// probing epoch of s against the values snapshotted at compute time — no
// callbacks, no subscription, and cached answers are bitwise identical to
// uncached ones because hits return the double the evaluator itself
// produced. Two structural facts sharpen the hit rate:
//
//  * when s's profile holds no entry for (pair, predecessor) — an O(1)
//    check via HistoryProfile::position_count — sigma is exactly 0 for
//    every successor, so the entry is keyed under a canonical
//    "history-free" predecessor and shared across all such predecessors;
//  * those history-free entries are also independent of the connection
//    index k (only sigma's denominator sees k), so they stay valid across
//    the connections of a set until an epoch moves.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "core/contract.hpp"
#include "core/flat_hash.hpp"
#include "core/history.hpp"
#include "core/suspicion.hpp"
#include "net/ids.hpp"
#include "net/probing.hpp"

namespace p2panon::core {

class EdgeQualityEvaluator {
 public:
  /// `suspicion` (optional) folds the timeout-driven suspect penalty into
  /// the availability term; nullptr reproduces the fault-free quality
  /// bitwise (the multiplier is then exactly 1 and never computed).
  EdgeQualityEvaluator(const net::ShardedProbing& probing, const HistoryStore& history,
                       QualityWeights weights,
                       const SuspicionTracker* suspicion = nullptr) noexcept
      : probing_(probing), history_(history), weights_(weights), suspicion_(suspicion) {}
  /// Over the serial engine's estimator.
  EdgeQualityEvaluator(const net::ProbingEstimator& probing, const HistoryStore& history,
                       QualityWeights weights,
                       const SuspicionTracker* suspicion = nullptr) noexcept
      : EdgeQualityEvaluator(probing.estimator(), history, weights, suspicion) {}

  [[nodiscard]] const QualityWeights& weights() const noexcept { return weights_; }
  [[nodiscard]] const net::ShardedProbing& probing() const noexcept { return probing_; }
  [[nodiscard]] const HistoryStore& history() const noexcept { return history_; }

  /// Suspicion epoch for cache freshness: constant 0 without a tracker.
  [[nodiscard]] std::uint64_t suspicion_epoch() const noexcept {
    return suspicion_ != nullptr ? suspicion_->epoch() : 0;
  }

  /// q(s, v) when s (whose current predecessor on the path is `predecessor`)
  /// considers forwarding connection k of `pair` to v, with responder R.
  [[nodiscard]] double edge_quality(net::NodeId s, net::NodeId v, net::NodeId responder,
                                    net::PairId pair, net::NodeId predecessor,
                                    std::uint32_t k) const {
    if (v == responder) return 1.0;  // last edge always has quality 1
    const double sigma = history_.at(s).selectivity(pair, predecessor, v, k);
    double alpha = probing_.availability_of(s, v);
    if (suspicion_ != nullptr) alpha *= suspicion_->availability_factor(v);
    return weights_.w_selectivity * sigma + weights_.w_availability * alpha;
  }

  /// Quality of a full path (node sequence initiator..responder): the sum of
  /// the qualities of its edges, evaluated with each hop's actual
  /// predecessor.
  [[nodiscard]] double path_quality(std::span<const net::NodeId> path, net::PairId pair,
                                    std::uint32_t k) const;

 private:
  const net::ShardedProbing& probing_;
  const HistoryStore& history_;
  QualityWeights weights_;
  const SuspicionTracker* suspicion_;
};

/// Lossy, fixed-size, epoch-invalidated memo of edge_quality answers. One
/// cache serves one evaluator (one replicate); misses recompute through the
/// evaluator, so eviction can never change a result — only its cost.
class EdgeQualityCache {
 public:
  /// Everything about the forwarder side of an edge lookup that is shared by
  /// all candidate successors of one decision level: both epochs and the
  /// canonical predecessor (kInvalidNode when s is history-free for
  /// (pair, predecessor) — sigma is exactly 0 toward every successor, so all
  /// such predecessors share one entry; kInvalidNode itself always qualifies
  /// because no stored entry has an invalid predecessor). Resolving these
  /// once per level and handing them to get_or_compute_at keeps the epoch
  /// loads and the canonicalisation probe off the per-edge path. The facts
  /// stay valid as long as no mutation intervenes — trivially true inside
  /// one hop decision.
  struct NodeFacts {
    std::uint64_t h_epoch = 0;
    std::uint64_t p_epoch = 0;
    std::uint64_t s_epoch = 0;  ///< suspicion epoch (constant 0 untracked)
    net::NodeId s = net::kInvalidNode;
    net::PairId pair = net::kInvalidPair;
    net::NodeId predecessor = net::kInvalidNode;
    net::NodeId canonical = net::kInvalidNode;
  };

  [[nodiscard]] NodeFacts node_facts(const EdgeQualityEvaluator& eval, net::NodeId s,
                                     net::PairId pair, net::NodeId predecessor) {
    const HistoryProfile& profile = eval.history().at(s);
    NodeFacts f;
    f.h_epoch = profile.epoch();
    f.p_epoch = eval.probing().epoch(s);
    f.s_epoch = eval.suspicion_epoch();
    f.s = s;
    f.pair = pair;
    f.predecessor = predecessor;
    f.canonical = resolve_history_free(profile, s, pair, predecessor) ? net::kInvalidNode
                                                                      : predecessor;
    return f;
  }

  /// q(s, v, ...) — a validated hit, or the evaluator's answer (stored).
  [[nodiscard]] double get_or_compute(const EdgeQualityEvaluator& eval, net::NodeId s,
                                      net::NodeId v, net::NodeId responder, net::PairId pair,
                                      net::NodeId predecessor, std::uint32_t k) {
    if (v == responder) return 1.0;  // never cached; definitionally 1
    return get_or_compute_at(eval, node_facts(eval, s, pair, predecessor), v, responder, k);
  }

  /// As get_or_compute, with the forwarder-side facts already in hand.
  [[nodiscard]] double get_or_compute_at(const EdgeQualityEvaluator& eval, const NodeFacts& f,
                                         net::NodeId v, net::NodeId responder, std::uint32_t k) {
    if (v == responder) return 1.0;  // never cached; definitionally 1

    const std::uint64_t h_epoch = f.h_epoch;
    const std::uint64_t p_epoch = f.p_epoch;
    const std::uint64_t s_epoch = f.s_epoch;
    const bool free = f.canonical == net::kInvalidNode;
    const PackedKey key = PackedKey::of(f.s, v, f.pair, f.canonical);

    if (slots_.empty()) slots_.assign(std::size_t{1} << kLog2Slots, Slot{});
    const std::size_t mask = slots_.size() - 1;
    const std::size_t home =
        static_cast<std::size_t>(hash_packed_key_fast(key) >> (64 - kLog2Slots));

    std::size_t victim = home;
    bool victim_fixed = false;
    for (std::size_t p = 0; p < kProbes; ++p) {
      const std::size_t i = (home + p) & mask;
      Slot& slot = slots_[i];
      if (slot.used && slot.key == key) {
        const bool fresh = slot.history_epoch == h_epoch && slot.probing_epoch == p_epoch &&
                           slot.suspicion_epoch == s_epoch &&
                           (slot.history_free || slot.conn_index == k);
        if (fresh) {
          ++hits_;
          return slot.value;
        }
        victim = i;  // stale entry for this very key: refresh in place
        victim_fixed = true;
        break;
      }
      if (!slot.used && !victim_fixed) {
        victim = i;
        victim_fixed = true;
      }
    }

    ++misses_;
    const double value = eval.edge_quality(f.s, v, responder, f.pair, f.predecessor, k);
    Slot& slot = slots_[victim];
    slot.key = key;
    slot.history_epoch = h_epoch;
    slot.probing_epoch = p_epoch;
    slot.suspicion_epoch = s_epoch;
    slot.conn_index = k;
    slot.history_free = free;
    slot.used = true;
    slot.value = value;
    return value;
  }

  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }

 private:
  struct Slot {
    PackedKey key;               // (s, v, pair, canonical predecessor)
    std::uint64_t history_epoch = 0;
    std::uint64_t probing_epoch = 0;
    std::uint64_t suspicion_epoch = 0;
    std::uint32_t conn_index = 0;
    bool history_free = false;   // sigma == 0 entry: valid for any k
    bool used = false;
    double value = 0.0;
  };

  static constexpr std::size_t kProbes = 4;

  /// Canonicalisation memo: a hop decision resolves the same
  /// (s, pair, predecessor) triple once per candidate successor and once
  /// more after every return from a recursive subtree, so a small
  /// direct-mapped, epoch-validated table (L1-resident; a colliding entry
  /// is simply recomputed) keeps position_count off the hit path. Epoch
  /// equality makes a hit correct at any time — inside or outside a
  /// decision.
  struct CanonEntry {
    PackedKey key;  // (s, pair, predecessor)
    std::uint64_t h_epoch = 0;
    bool free = false;
    bool used = false;
  };
  static constexpr std::size_t kCanonSlots = 64;

  bool resolve_history_free(const HistoryProfile& profile, net::NodeId s, net::PairId pair,
                            net::NodeId predecessor) {
    const std::uint64_t h_epoch = profile.epoch();
    const PackedKey ck = PackedKey::of(s, pair, predecessor);
    CanonEntry& e = canon_[static_cast<std::size_t>(hash_packed_key_fast(ck) >> 58)];
    if (e.used && e.key == ck && e.h_epoch == h_epoch) return e.free;
    const bool free = profile.position_count(pair, predecessor) == 0;
    e = CanonEntry{ck, h_epoch, free, true};
    return free;
  }

  static constexpr std::size_t kLog2Slots = 15;  ///< fixed: no reallocation after first use
  std::vector<Slot> slots_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::array<CanonEntry, kCanonSlots> canon_{};
};

}  // namespace p2panon::core
