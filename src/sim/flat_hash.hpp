// Packed-key open-addressing hash table: the one probing table of the
// program.
//
// Hot paths index small fixed-width composite keys — the decision stack's
// (pair, predecessor, successor) history counts and (from, pred, depth)
// lookahead states, the settlement engine's (forwarder, connection,
// predecessor, successor) hops, the bank's spent coins and used settlement
// nonces. A node-based std::map/unordered_map pays an allocation plus
// pointer chases per probe; this table packs each composite key into 128
// bits and resolves lookups with linear probing over one contiguous slot
// array, so the steady-state cost of a hit is a single cache line. Entries
// are never erased, only the whole table cleared.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <cstddef>
#include <utility>
#include <vector>

namespace p2panon::sim {

/// A 128-bit composite key assembled from up to four 32-bit ids.
struct PackedKey {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  [[nodiscard]] friend bool operator==(const PackedKey&, const PackedKey&) = default;

  [[nodiscard]] static constexpr PackedKey of(std::uint32_t a, std::uint32_t b,
                                              std::uint32_t c = 0, std::uint32_t d = 0) noexcept {
    return PackedKey{(static_cast<std::uint64_t>(a) << 32) | b,
                     (static_cast<std::uint64_t>(c) << 32) | d};
  }
};

/// SplitMix64-style avalanche over both key words. Cheap and well mixed for
/// power-of-two table sizes.
[[nodiscard]] constexpr std::uint64_t hash_packed_key(PackedKey k) noexcept {
  std::uint64_t z = k.lo ^ (k.hi * 0x9E3779B97F4A7C15ULL + 0xD1B54A32D192ED03ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Two-multiply mixing for the *lossy* decision-scratch memo, whose slot
/// index comes from the HIGH bits (multiplicative hashing concentrates
/// entropy there — callers shift, not mask). A collision there costs a
/// recomputation, never a wrong answer, so the shorter dependency chain
/// wins on the hot path. The exact PackedFlatMap keeps the avalanche hash
/// above.
[[nodiscard]] constexpr std::uint64_t hash_packed_key_fast(PackedKey k) noexcept {
  return (k.lo ^ (k.hi * 0xD1B54A32D192ED03ULL)) * 0x9E3779B97F4A7C15ULL;
}

/// Exact map from PackedKey to Value (linear probing, max load 0.75,
/// power-of-two capacity, insert-only). Values must be cheap to move.
template <typename Value>
class PackedFlatMap {
 public:
  PackedFlatMap() = default;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  void clear() {
    slots_.clear();
    size_ = 0;
  }

  [[nodiscard]] const Value* find(PackedKey key) const noexcept {
    if (slots_.empty()) return nullptr;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash_packed_key(key) & mask;; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (!s.used) return nullptr;
      if (s.key == key) return &s.value;
    }
  }

  [[nodiscard]] Value* find(PackedKey key) noexcept {
    return const_cast<Value*>(static_cast<const PackedFlatMap*>(this)->find(key));
  }

  /// Value slot for `key`, inserting a default-constructed one when absent.
  [[nodiscard]] Value& get_or_insert(PackedKey key) { return insert(key).first; }

  /// Like get_or_insert, and also true when `key` was absent (a set's
  /// insert).
  std::pair<Value&, bool> insert(PackedKey key) {
    if (slots_.empty() || (size_ + 1) * 4 > slots_.size() * 3) grow();
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash_packed_key(key) & mask;; i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (!s.used) {
        s.used = true;
        s.key = key;  // an unused slot still holds its Value{}: nothing is erased
        ++size_;
        return {s.value, true};
      }
      if (s.key == key) return {s.value, false};
    }
  }

  [[nodiscard]] bool contains(PackedKey key) const noexcept { return find(key) != nullptr; }

  /// Size the slot array so `n` entries fit without growing.
  void reserve(std::size_t n) {
    if (n * 4 > slots_.size() * 3) rehash(std::bit_ceil(std::max<std::size_t>(16, n * 4 / 3 + 1)));
  }

 private:
  struct Slot {
    PackedKey key;
    Value value{};
    bool used = false;
  };

  void grow() { rehash(slots_.empty() ? 16 : slots_.size() * 2); }

  /// Move every entry into a fresh array of `capacity` (a power of two)
  /// slots.
  void rehash(std::size_t capacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(capacity, Slot{});
    const std::size_t mask = slots_.size() - 1;
    for (Slot& s : old) {
      if (!s.used) continue;
      std::size_t i = hash_packed_key(s.key) & mask;
      while (slots_[i].used) i = (i + 1) & mask;
      slots_[i] = std::move(s);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace p2panon::sim
