// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded in the benchmark's own code around calls into the
// program's layers (sim, net, core, payment, transport, fault, parallel,
// harness); the program itself is not instrumented. A span has a name whose
// first dot-separated component is its layer, a start and end on the steady
// clock, its parent span, and the number of calls it covers (a span around
// a batch of nanosecond-scale calls covers many). Spans stay in memory and
// are written out once, when the traced run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;  ///< relative to the tracer's epoch
  std::int64_t end_ns = -1;   ///< -1 while the span is open
  int parent = -1;            ///< index into spans(); -1 for a root
  std::uint64_t calls = 1;
};

class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Open a span now; returns its id for end() and for children's parent.
  int begin(std::string name, int parent = -1);
  void end(int id, std::uint64_t calls = 1);

  /// Record a span whose endpoints the caller measured itself (a task on a
  /// pool thread). Thread-safe, like begin() and end().
  void record(std::string name, int parent, Clock::time_point start, Clock::time_point end);

  [[nodiscard]] std::vector<SpanRecord> spans() const;

  /// Span duration minus the union of the intervals its direct children
  /// cover (children may overlap when they ran on several threads).
  [[nodiscard]] static std::vector<std::int64_t> self_times(const std::vector<SpanRecord>& spans);

  /// Write every span, with its self time, as JSON to `path`.
  bool write_json(const std::string& path) const;

 private:
  [[nodiscard]] std::int64_t since_epoch(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count();
  }

  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
};

/// RAII span for serial code.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, int parent = -1)
      : tracer_(tracer), id_(tracer.begin(std::move(name), parent)) {}
  ~ScopedSpan() { tracer_.end(id_, calls_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] int id() const noexcept { return id_; }
  void set_calls(std::uint64_t calls) noexcept { calls_ = calls; }

 private:
  Tracer& tracer_;
  int id_;
  std::uint64_t calls_ = 1;
};

}  // namespace perfbench
