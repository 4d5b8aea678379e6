#include "sim/event_queue.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.hpp"

namespace smiless::sim {

EventId EventQueue::schedule(SimTime t, Callback cb) {
  SMILESS_CHECK_MSG(sequence_ + 1 < (std::uint64_t{1} << (64 - kSlotBits)),
                    "event queue: 2^40 schedules reached");
  std::size_t slot = 0;
  if (free_.empty()) {
    SMILESS_CHECK_MSG(owner_.size() < (std::size_t{1} << kSlotBits),
                      "event queue: 2^24 events pending");
    slot = owner_.size();
    owner_.push_back(0);
    callbacks_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  const EventId id = (++sequence_ << kSlotBits) | slot;
  owner_[slot] = id;
  callbacks_[slot] = std::move(cb);
  ++live_;
  heap_.push_back({t, id});
  sift_up(heap_.size() - 1);
  return id;
}

bool EventQueue::cancel(EventId id) {
  const std::size_t slot = id & kSlotMask;
  if (id == 0 || slot >= owner_.size() || owner_[slot] != id) return false;
  release(slot);  // the heap entry goes stale; captures are released now
  if (heap_.size() > 2 * live_ + 64) rebuild();
  return true;
}

bool EventQueue::pop_due(SimTime end, SimTime* t, EventId* id, Callback* cb) {
  drop_stale_top();
  if (heap_.empty() || heap_.front().time > end) return false;
  const Entry top = heap_.front();
  const std::size_t slot = top.id & kSlotMask;
  *t = top.time;
  *id = top.id;
  *cb = std::move(callbacks_[slot]);
  release(slot);
  pop_top();
  return true;
}

SimTime EventQueue::next_time() {
  drop_stale_top();
  return heap_.empty() ? std::numeric_limits<SimTime>::infinity() : heap_.front().time;
}

void EventQueue::release(std::size_t slot) {
  owner_[slot] = 0;
  callbacks_[slot] = nullptr;
  free_.push_back(static_cast<std::uint32_t>(slot));
  --live_;
}

void EventQueue::drop_stale_top() {
  while (!heap_.empty() && stale(heap_.front())) pop_top();
}

void EventQueue::pop_top() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

void EventQueue::sift_up(std::size_t i) {
  const Entry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void EventQueue::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  const Entry e = heap_[i];
  while (true) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + 4, n);
    for (std::size_t c = first + 1; c < last; ++c)
      if (before(heap_[c], heap_[best])) best = c;
    if (!before(heap_[best], e)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

void EventQueue::rebuild() {
  std::erase_if(heap_, [this](const Entry& e) { return stale(e); });
  // Floyd's heapify: sift every parent down, the last one first.
  if (heap_.size() > 1)
    for (std::size_t i = (heap_.size() - 2) / 4 + 1; i-- > 0;) sift_down(i);
}

}  // namespace smiless::sim
