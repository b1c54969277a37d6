#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <utility>

namespace perfbench {

int Tracer::begin(std::string name, int parent) {
  const std::int64_t start = since_epoch(Clock::now());
  std::lock_guard lk(mu_);
  spans_.push_back(SpanRecord{std::move(name), start, -1, parent, 1});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::end(int id, std::uint64_t calls) {
  const std::int64_t stop = since_epoch(Clock::now());
  std::lock_guard lk(mu_);
  spans_.at(static_cast<std::size_t>(id)).end_ns = stop;
  spans_.at(static_cast<std::size_t>(id)).calls = calls;
}

void Tracer::record(std::string name, int parent, Clock::time_point start,
                    Clock::time_point end) {
  SpanRecord s{std::move(name), since_epoch(start), since_epoch(end), parent, 1};
  std::lock_guard lk(mu_);
  spans_.push_back(std::move(s));
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard lk(mu_);
  return spans_;
}

std::vector<std::int64_t> Tracer::self_times(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0;
    std::int64_t cur_hi = -1;
    for (const auto& [lo_raw, hi_raw] : iv) {
      const std::int64_t lo = std::max(lo_raw, spans[i].start_ns);
      const std::int64_t hi = std::min(hi_raw, spans[i].end_ns);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

bool Tracer::write_json(const std::string& path) const {
  const std::vector<SpanRecord> all = spans();
  const std::vector<std::int64_t> self = self_times(all);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"spans\": [\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    out << "  {\"id\": " << i << ", \"name\": \"" << s.name << "\", \"parent\": " << s.parent
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"self_ns\": " << self[i] << ", \"calls\": " << s.calls << "}"
        << (i + 1 < all.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
