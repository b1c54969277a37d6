// Per-replicate decision resources: the reusable memo arena behind the
// Utility-Model-II bounded lookahead and the SPNE backward induction, and the
// buffers that PathBuilder refills for every hop and path. Every
// RoutingContext carries one: subproblem values go through the memo while a
// DecisionScope is open.
//
// The memo lives for one synchronous PathBuilder::build, or for one hop
// decision of the event-driven runner. No event runs inside either — the
// simulator is single-threaded — so the world (overlay liveness, history,
// probing estimates) is frozen for that span, and subproblem values keyed
// by (node, predecessor, remaining depth) or (holder, stages left) may be
// shared across the candidate subtrees of a decision and across the hops
// of one build. The async runner lets events run between hops, so each of
// its decisions opens its own generation. DecisionScratch realises this as
// a generation-tagged, fixed-size, lossy memo table: DecisionScope arms it
// (bumping the generation invalidates every earlier entry in O(1); a scope
// opened inside an armed one keeps the outer generation), recursive
// evaluators consult it only while armed, and a missed or evicted entry is
// simply recomputed — eviction can never change a value, only its cost.
// Steady state performs no allocation.
#pragma once

#include <cstdint>
#include <vector>

#include "net/ids.hpp"
#include "sim/flat_hash.hpp"

namespace p2panon::core {

/// Memo namespaces within one decision (the fourth PackedKey word).
enum ScratchMode : std::uint32_t {
  kScratchLookahead = 0,    ///< best_onward_quality over (from, pred, depth)
  kScratchEquilibrium = 1,  ///< SPNE onward value over (holder, stages_left)
};

class DecisionScratch {
 public:
  /// Start a new memo lifetime: all entries of earlier ones become stale at
  /// once. Use DecisionScope rather than calling this directly.
  void begin_decision() {
    if (slots_.empty()) slots_.assign(std::size_t{1} << kLog2Slots, Slot{});
    ++generation_;
    armed_ = true;
  }
  void end_decision() noexcept { armed_ = false; }

  /// Memoisation is only sound while a scope is open (the world is
  /// frozen); recursive evaluators must check this before lookup/store.
  [[nodiscard]] bool armed() const noexcept { return armed_; }

  /// Within one generation a slot never goes stale again, and store() takes
  /// the first stale slot of the window, so a stored key has no stale slot
  /// before it: the probe stops at the first one.
  [[nodiscard]] bool lookup(sim::PackedKey key, double* out) const noexcept {
    const std::size_t mask = slots_.size() - 1;
    const std::size_t home = home_slot(key);
    for (std::size_t p = 0; p < kProbes; ++p) {
      const Slot& s = slots_[(home + p) & mask];
      if (s.generation != generation_) return false;
      if (s.key == key) {
        *out = s.value;
        return true;
      }
    }
    return false;
  }

  void store(sim::PackedKey key, double value) noexcept {
    const std::size_t mask = slots_.size() - 1;
    const std::size_t home = home_slot(key);
    std::size_t victim = home;  // a full window evicts its home slot
    for (std::size_t p = 0; p < kProbes; ++p) {
      const std::size_t i = (home + p) & mask;
      if (slots_[i].generation != generation_) {
        victim = i;  // stale slot: free real estate
        break;
      }
      if (slots_[i].key == key) {
        victim = i;
        break;
      }
    }
    slots_[victim] = Slot{key, generation_, value};
  }

  /// Slots a key may occupy, starting at its home slot.
  static constexpr std::size_t kProbes = 8;
  static constexpr std::size_t kLog2Slots = 12;

  /// The first slot of `key`'s probe window.
  [[nodiscard]] static std::size_t home_slot(sim::PackedKey key) noexcept {
    return static_cast<std::size_t>(sim::hash_packed_key_fast(key) >> (64 - kLog2Slots));
  }

 private:
  struct Slot {
    sim::PackedKey key;
    std::uint64_t generation = 0;  // 0 never matches: generation_ starts at 1
    double value = 0.0;
  };

  std::vector<Slot> slots_;
  std::uint64_t generation_ = 0;
  bool armed_ = false;
};

/// Everything one replicate's decision stack shares across hop decisions.
/// Owned by a PathBuilder (or by a test or bench) and threaded through
/// RoutingContext. Construction allocates nothing: the memo sizes its table
/// on first use, and each buffer grows to its largest size once.
struct DecisionResources {
  DecisionScratch scratch;
  /// PathBuilder's candidate list for the hop being decided; refilled by
  /// every decision.
  std::vector<net::NodeId> candidates;
  /// The path PathBuilder::build is growing: its nodes and edge qualities.
  std::vector<net::NodeId> path_nodes;
  std::vector<double> path_qualities;
};

/// RAII armer. PathBuilder::build opens one scope for the whole build and
/// strategies open one per choose() call; a scope opened while the scratch
/// is already armed leaves the outer generation and arming alone.
class DecisionScope {
 public:
  explicit DecisionScope(DecisionResources& resources)
      : scratch_(resources.scratch), outermost_(!scratch_.armed()) {
    if (outermost_) scratch_.begin_decision();
  }
  ~DecisionScope() {
    if (outermost_) scratch_.end_decision();
  }
  DecisionScope(const DecisionScope&) = delete;
  DecisionScope& operator=(const DecisionScope&) = delete;

 private:
  DecisionScratch& scratch_;
  bool outermost_;
};

}  // namespace p2panon::core
