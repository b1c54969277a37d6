#include "sim/simulator.hpp"

#include <cassert>

namespace p2panon::sim {

EventId Simulator::schedule_in(Time delay, EventFn fn) {
  assert(delay >= 0.0 && "negative delay");
  return queue_.schedule(now_ + delay, std::move(fn));
}

EventId Simulator::schedule_at(Time at, EventFn fn) {
  assert(at >= now_ && "scheduling into the past");
  return queue_.schedule(at, std::move(fn));
}

EventId Simulator::schedule_in(LaneId lane, Time delay, EventFn fn) {
  assert(delay >= 0.0 && "negative delay");
  const Time at = now_ + delay;
  assert(at >= queue_.lane_back(lane) && "one fixed delay per lane keeps its appends monotone");
  return queue_.schedule(lane, at, std::move(fn));
}

EventId Simulator::schedule_at(LaneId lane, Time at, EventFn fn) {
  assert(at >= now_ && "scheduling into the past");
  return queue_.schedule(lane, at, std::move(fn));
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  auto ev = queue_.pop();
  assert(ev.time >= now_);
  now_ = ev.time;
  ++executed_;
  ev.fn();
  return true;
}

Time Simulator::run_until(Time until) {
  while (!queue_.empty() && queue_.next_time() <= until) {
    step();
  }
  if (now_ < until) now_ = until;
  return now_;
}

Time Simulator::run_to_completion() {
  while (step()) {
  }
  return now_;
}

void Simulator::reset() {
  queue_.clear();
  now_ = 0.0;
  executed_ = 0;
}

}  // namespace p2panon::sim
