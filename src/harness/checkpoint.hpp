// Crash-tolerant artifact plane for the replication harness.
//
// Two layers:
//
//  1. atomic_write_file — the single sanctioned way to put a results
//     artifact (BENCH_*.json, CSV tables, checkpoints) on disk. Bytes land
//     in a sibling temp file first and are moved over the destination with
//     one atomic rename, so a crash at any instant leaves either the old
//     complete file or the new complete file — never a truncated artifact.
//     (Invariant-linter rule R7 flags direct ofstream writes that bypass it.)
//
//  2. Checkpoint — a versioned, integrity-digested key/value codec for sweep
//     state. Doubles are encoded as IEEE-754 bit patterns (encode_double /
//     decode_double), so a state save/load round-trip is bit-exact: a sweep
//     resumed from its checkpoint produces numerically identical final
//     aggregates to an uninterrupted run (asserted by the kill-and-resume
//     gates; see DESIGN.md §3.12).
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "metrics/stats.hpp"

namespace p2panon::harness {

/// Atomically replace `path` with `payload` (write temp + rename).
/// Returns false (with the partial temp file removed) on any I/O error.
[[nodiscard]] bool atomic_write_file(const std::filesystem::path& path,
                                     std::string_view payload);

// --- FNV-1a, the repo's standard cheap digest: used for checkpoint
// integrity, config fingerprints and both sharded runners' model digests.

[[nodiscard]] constexpr std::uint64_t fnv1a_init() noexcept {
  return 1469598103934665603ULL;
}
[[nodiscard]] constexpr std::uint64_t fnv1a_mix(std::uint64_t h, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffULL;
    h *= 1099511628211ULL;
  }
  return h;
}
[[nodiscard]] std::uint64_t fnv1a_bytes(std::uint64_t h, std::string_view bytes) noexcept;
/// Mix a double by bit pattern (distinguishes +0.0 / -0.0; total on NaNs).
[[nodiscard]] std::uint64_t fnv1a_double(std::uint64_t h, double x) noexcept;

// --- Bit-exact double <-> text -------------------------------------------

/// IEEE-754 bit pattern as lowercase hex; round-trips every value
/// (including -0.0, infinities and NaN payloads) exactly.
[[nodiscard]] std::string encode_double(double x);
[[nodiscard]] std::optional<double> decode_double(std::string_view s) noexcept;
[[nodiscard]] std::string encode_u64(std::uint64_t v);
[[nodiscard]] std::optional<std::uint64_t> decode_u64(std::string_view s) noexcept;
/// metrics::Accumulator::Raw as five space-separated encode_u64 tokens.
[[nodiscard]] std::string encode_accumulator(const metrics::Accumulator& acc);
[[nodiscard]] std::optional<metrics::Accumulator> decode_accumulator(const std::string& s);

/// Checkpoint file: ordered (key, value) records under a versioned header,
/// closed by a whole-file FNV-1a digest line. `load` refuses a file whose
/// header, shape, or digest does not check out (a torn or tampered file
/// behaves exactly like no checkpoint: the sweep restarts from scratch).
///
/// Keys are whitespace-free tokens ('.'-namespaced by convention); values
/// are single-line strings. `save` goes through atomic_write_file.
class Checkpoint {
 public:
  static constexpr std::string_view kHeader = "p2panon-checkpoint v1";

  /// Replace the first record with this key, or append a new one.
  void set(std::string key, std::string value);
  /// First value stored under `key`, or nullptr.
  [[nodiscard]] const std::string* find(std::string_view key) const noexcept;
  /// Drop every record whose key starts with `prefix`.
  void erase_prefix(std::string_view prefix);
  [[nodiscard]] bool empty() const noexcept { return records_.empty(); }

  [[nodiscard]] bool save(const std::filesystem::path& path) const;
  [[nodiscard]] static std::optional<Checkpoint> load(const std::filesystem::path& path);

 private:
  std::vector<std::pair<std::string, std::string>> records_;
};

}  // namespace p2panon::harness
