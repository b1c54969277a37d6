#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>

namespace p2panon::sim {

void EventQueue::sift_up(std::size_t hole, Entry e) noexcept {
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / kArity;
    if (!earlier(e, heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = e;
}

void EventQueue::sift_down(std::size_t hole, Entry e) const noexcept {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = hole * kArity + 1;
    if (first >= n) break;
    const std::size_t last = first + kArity < n ? first + kArity : n;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], e)) break;
    heap_[hole] = heap_[best];
    hole = best;
  }
  heap_[hole] = e;
}

void EventQueue::pop_top() const noexcept {
  const Entry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0, last);
}

std::uint32_t EventQueue::acquire_slot() {
  std::uint32_t idx;
  if (free_head_ != kNoFreeSlot) {
    idx = free_head_;
    free_head_ = meta_[idx].next_free;
  } else {
    assert(meta_.size() < kLive && "slot index space exhausted");
    idx = static_cast<std::uint32_t>(meta_.size());
    meta_.emplace_back();
    fns_.emplace_back();
  }
  SlotMeta& m = meta_[idx];
  ++m.gen;
  if (m.gen == 0) ++m.gen;  // gen 0 never names a live event (id 0 is invalid)
  m.next_free = kLive;
  return idx;
}

void EventQueue::release_slot(std::uint32_t slot) noexcept {
  fns_[slot].reset();
  meta_[slot].next_free = free_head_;
  free_head_ = slot;
}

EventQueue::Entry EventQueue::admit(Time at, EventFn fn) {
  assert(fn && "scheduling an empty event");
  ++stats_.scheduled;
  if (fn.uses_heap()) ++stats_.callback_heap_allocs;
  const std::uint32_t slot = acquire_slot();
  fns_[slot] = std::move(fn);
  ++live_count_;
  return Entry{at, next_seq_++, slot, meta_[slot].gen};
}

EventId EventQueue::schedule(Time at, EventFn fn) {
  const Entry e = admit(at, std::move(fn));
  heap_.emplace_back();
  sift_up(heap_.size() - 1, e);
  return make_id(e.slot, e.gen);
}

EventQueue::LaneId EventQueue::add_lane() {
  lanes_.emplace_back();
  return static_cast<LaneId>(lanes_.size() - 1);
}

Time EventQueue::lane_back(LaneId lane) const noexcept {
  const Lane& l = lanes_[lane];
  return l.count == 0 ? -kTimeInfinity : l.back().time;
}

void EventQueue::Lane::push_back(const Entry& e) {
  assert((count == 0 || !earlier(e, back())) && "lane entries must stay in (time, seq) order");
  if (count == ring.size()) reserve(count + 1);
  ring[(head + count) & (ring.size() - 1)] = e;
  ++count;
}

void EventQueue::Lane::reserve(std::size_t n) {
  if (n <= ring.size()) return;
  std::size_t cap = std::max<std::size_t>(16, 2 * ring.size());
  while (cap < n) cap *= 2;
  std::vector<Entry> grown(cap);
  for (std::size_t i = 0; i < count; ++i) grown[i] = ring[(head + i) & (ring.size() - 1)];
  ring.swap(grown);
  head = 0;
}

EventId EventQueue::schedule(LaneId lane, Time at, EventFn fn) {
  assert(lane < lanes_.size() && "no such lane");
  Lane& l = lanes_[lane];
  // seq rises with every schedule, so (at, seq) follows the lane's last entry
  // exactly when `at` is not before its time.
  if (l.count != 0 && at < l.back().time) return schedule(at, std::move(fn));
  const Entry e = admit(at, std::move(fn));
  l.push_back(e);
  return make_id(e.slot, e.gen);
}

bool EventQueue::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= meta_.size()) return false;
  const SlotMeta& m = meta_[slot];
  if (m.next_free != kLive || m.gen != gen) return false;  // fired, cancelled, or recycled
  release_slot(slot);
  --live_count_;
  ++stats_.cancelled;
  // The heap or lane entry stays behind; earliest_live() discards it when it
  // surfaces (its slot is no longer live under that generation).
  return true;
}

std::uint32_t EventQueue::earliest_front() const noexcept {
  std::uint32_t best = kNoSource;
  const Entry* first = nullptr;
  if (!heap_.empty()) {
    best = kHeapSource;
    first = &heap_.front();
  }
  for (std::uint32_t i = 0; i < lanes_.size(); ++i) {
    const Lane& l = lanes_[i];
    if (l.count != 0 && (first == nullptr || earlier(l.front(), *first))) {
      best = i;
      first = &l.front();
    }
  }
  return best;
}

void EventQueue::drop_front(std::uint32_t source) const noexcept {
  if (source == kHeapSource) {
    pop_top();
  } else {
    lanes_[source].pop_front();
  }
}

std::uint32_t EventQueue::earliest_live() const {
  for (;;) {
    const std::uint32_t source = earliest_front();
    if (source == kNoSource || entry_live(front_of(source))) return source;
    drop_front(source);
  }
}

Time EventQueue::next_time() const noexcept {
  const std::uint32_t source = earliest_live();
  return source == kNoSource ? kTimeInfinity : front_of(source).time;
}

EventQueue::Popped EventQueue::pop() {
  const std::uint32_t source = earliest_live();
  assert(source != kNoSource && "pop() on empty EventQueue");
  const Entry e = front_of(source);
  drop_front(source);
  if (source != kHeapSource) ++stats_.fired_from_lanes;
  Popped out{e.time, make_id(e.slot, e.gen), std::move(fns_[e.slot])};
  // Free the slot before the caller runs the callback: the event is spent,
  // so cancel() of its own id from inside the callback reports false.
  release_slot(e.slot);
  --live_count_;
  ++stats_.fired;
  // Pull the next earliest entry's slots toward the cache while the caller
  // runs this callback (the callback column is far beyond L2 at scale).
  // Only a hint: the entry may be stale or be overtaken by a new schedule.
  const std::uint32_t next = earliest_front();
  if (next != kNoSource) {
    const std::uint32_t slot = front_of(next).slot;
    const auto* fn_bytes = reinterpret_cast<const char*>(&fns_[slot]);
    __builtin_prefetch(&meta_[slot]);
    __builtin_prefetch(fn_bytes);
    __builtin_prefetch(fn_bytes + sizeof(EventCallback) - 1);
  }
  return out;
}

void EventQueue::reserve_more(std::size_t n, LaneId lane) {
  const auto grow = [](auto& v, std::size_t need) {
    if (v.capacity() < need) v.reserve(std::max(need, 2 * v.capacity()));
  };
  grow(heap_, heap_.size() + n);
  lanes_[lane].reserve(lanes_[lane].count + n);
  const std::size_t free_slots = meta_.size() - live_count_;
  if (n > free_slots) {
    grow(meta_, meta_.size() + n - free_slots);
    grow(fns_, fns_.size() + n - free_slots);
  }
}

void EventQueue::clear() {
  heap_.clear();
  for (Lane& l : lanes_) l.head = l.count = 0;
  // Rebuild the free list over every slot. Generations are preserved (and
  // bumped on reuse), so ids handed out before clear() can never alias a
  // post-clear event.
  free_head_ = kNoFreeSlot;
  for (std::uint32_t i = 0; i < meta_.size(); ++i) {
    fns_[i].reset();
    meta_[i].next_free = free_head_;
    free_head_ = i;
  }
  live_count_ = 0;
  next_seq_ = 0;
  stats_ = Stats{};
}

}  // namespace p2panon::sim
