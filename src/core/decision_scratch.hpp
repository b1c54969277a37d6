// Per-replicate decision resources: the reusable memo arena behind the
// Utility-Model-II bounded lookahead and the SPNE backward induction. Every
// RoutingContext carries one: subproblem values go through the memo while a
// DecisionScope is open.
//
// One hop decision = one RoutingStrategy::choose call. The world (overlay
// liveness, history, probing estimates) is frozen for its duration — the
// simulator is single-threaded and no events run inside a decision — so
// subproblem values keyed by (node, predecessor, remaining depth) may be
// shared across the candidate subtrees of that one decision. DecisionScratch
// realises this as a generation-tagged, fixed-size, lossy memo table: a
// strategy arms it for the span of one choose() via DecisionScope (bumping
// the generation invalidates every earlier entry in O(1)), recursive
// evaluators consult it only while armed, and a missed or evicted entry is
// simply recomputed — eviction can never change a value, only its cost.
// Steady state performs no allocation.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/flat_hash.hpp"

namespace p2panon::core {

/// Memo namespaces within one decision (the fourth PackedKey word).
enum ScratchMode : std::uint32_t {
  kScratchLookahead = 0,    ///< best_onward_quality over (from, pred, depth)
  kScratchEquilibrium = 1,  ///< SPNE onward value over (holder, stages_left)
};

class DecisionScratch {
 public:
  /// Start a new hop decision: all entries of earlier decisions become
  /// stale at once. Use DecisionScope rather than calling this directly.
  void begin_decision() {
    if (slots_.empty()) slots_.assign(std::size_t{1} << kLog2Slots, Slot{});
    ++generation_;
    armed_ = true;
  }
  void end_decision() noexcept { armed_ = false; }

  /// Memoisation is only sound while a decision is in progress (the world
  /// is frozen); recursive evaluators must check this before lookup/store.
  [[nodiscard]] bool armed() const noexcept { return armed_; }

  [[nodiscard]] bool lookup(sim::PackedKey key, double* out) const noexcept {
    const std::size_t mask = slots_.size() - 1;
    const std::size_t home =
        static_cast<std::size_t>(sim::hash_packed_key_fast(key) >> (64 - kLog2Slots));
    for (std::size_t p = 0; p < kProbes; ++p) {
      const Slot& s = slots_[(home + p) & mask];
      if (s.generation == generation_ && s.key == key) {
        *out = s.value;
        return true;
      }
    }
    return false;
  }

  void store(sim::PackedKey key, double value) noexcept {
    const std::size_t mask = slots_.size() - 1;
    const std::size_t home =
        static_cast<std::size_t>(sim::hash_packed_key_fast(key) >> (64 - kLog2Slots));
    std::size_t victim = home;
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

 private:
  struct Slot {
    sim::PackedKey key;
    std::uint64_t generation = 0;  // 0 never matches: generation_ starts at 1
    double value = 0.0;
  };

  static constexpr std::size_t kProbes = 8;
  static constexpr std::size_t kLog2Slots = 12;

  std::vector<Slot> slots_;
  std::uint64_t generation_ = 0;
  bool armed_ = false;
};

/// Everything one replicate's decision stack shares across hop decisions.
/// Owned by a PathBuilder (or by a test or bench) and threaded through
/// RoutingContext. Construction allocates nothing: the memo sizes its table
/// on first use.
struct DecisionResources {
  DecisionScratch scratch;
};

/// RAII armer: strategies open one scope per choose() call.
class DecisionScope {
 public:
  explicit DecisionScope(DecisionResources& resources) : scratch_(resources.scratch) {
    scratch_.begin_decision();
  }
  ~DecisionScope() { scratch_.end_decision(); }
  DecisionScope(const DecisionScope&) = delete;
  DecisionScope& operator=(const DecisionScope&) = delete;

 private:
  DecisionScratch& scratch_;
};

}  // namespace p2panon::core
