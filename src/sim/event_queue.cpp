#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>

namespace p2panon::sim {

void EventQueue::sift_up(std::size_t hole, HeapEntry e) noexcept {
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / kArity;
    if (!earlier(e, heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = e;
}

void EventQueue::sift_down(std::size_t hole, HeapEntry e) const noexcept {
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
  const HeapEntry last = heap_.back();
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

EventId EventQueue::schedule(Time at, EventFn fn) {
  assert(fn && "scheduling an empty event");
  ++stats_.scheduled;
  if (fn.uses_heap()) ++stats_.callback_heap_allocs;
  const std::uint32_t slot = acquire_slot();
  const std::uint32_t gen = meta_[slot].gen;
  fns_[slot] = std::move(fn);
  heap_.emplace_back();
  sift_up(heap_.size() - 1, HeapEntry{at, next_seq_++, slot, gen});
  ++live_count_;
  return make_id(slot, gen);
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
  // The heap entry stays behind; drop_stale_tops() discards it when it
  // surfaces (its slot is no longer live under that generation).
  return true;
}

void EventQueue::drop_stale_tops() const {
  while (!heap_.empty() && !entry_live(heap_.front())) pop_top();
}

Time EventQueue::next_time() const noexcept {
  drop_stale_tops();
  return heap_.empty() ? kTimeInfinity : heap_.front().time;
}

EventQueue::Popped EventQueue::pop() {
  drop_stale_tops();
  assert(!heap_.empty() && "pop() on empty EventQueue");
  const HeapEntry e = heap_.front();
  pop_top();
  Popped out{e.time, make_id(e.slot, e.gen), std::move(fns_[e.slot])};
  // Free the slot before the caller runs the callback: the event is spent,
  // so cancel() of its own id from inside the callback reports false.
  release_slot(e.slot);
  --live_count_;
  ++stats_.fired;
  return out;
}

void EventQueue::reserve_more(std::size_t n) {
  const auto grow = [](auto& v, std::size_t need) {
    if (v.capacity() < need) v.reserve(std::max(need, 2 * v.capacity()));
  };
  grow(heap_, heap_.size() + n);
  const std::size_t free_slots = meta_.size() - live_count_;
  if (n > free_slots) {
    grow(meta_, meta_.size() + n - free_slots);
    grow(fns_, fns_.size() + n - free_slots);
  }
}

void EventQueue::clear() {
  heap_.clear();
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
