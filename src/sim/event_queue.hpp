#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/units.hpp"

namespace smiless::sim {

using EventId = std::uint64_t;

/// The Engine's pending-event set: a 4-ary min-heap of 16-byte (time, id)
/// entries over a vector of callback slots (DESIGN.md §13).
///
/// Ordering contract: events pop in strictly increasing (time, id) order.
/// The queue mints each id as (schedule sequence << 24) | slot, the
/// sequence counting schedules from 1, so ids rise in schedule order and
/// simultaneous events fire FIFO — the tie-break every trajectory depends
/// on. Limits, checked: fewer than 2^24 pending events and fewer than 2^40
/// schedules per queue.
///
/// Cancellation: the low bits of an id name its slot, and `owner_[slot]`
/// holds the slot's live id (0 when free), so cancel(id) is one index check
/// with no id map. It releases the closure and the slot at once and leaves
/// the heap entry behind; an entry whose slot no longer names it is stale
/// and is dropped when it reaches the top. When stale entries outnumber the
/// live ones (plus a slack of 64), the heap is rebuilt from the live ones.
/// Keys are unique, so the pop order cannot depend on the heap's layout.
///
/// Determinism: no hashing, no pointers, no clocks; the slot free list is
/// LIFO, so ids are a pure function of the schedule/cancel/pop history.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Insert an event at `t` and return its id.
  EventId schedule(SimTime t, Callback cb);

  /// Remove a pending event; returns false if `id` is not pending (already
  /// fired, already cancelled, or never scheduled).
  bool cancel(EventId id);

  /// If the earliest live event has time <= `end`, pop it into the out
  /// parameters and return true; otherwise (later event, or empty) leave
  /// them untouched and return false.
  bool pop_due(SimTime end, SimTime* t, EventId* id, Callback* cb);

  /// Time of the earliest live event, or +infinity when empty. Drops the
  /// stale entries above it, as pop_due would.
  SimTime next_time();

  /// Pending (scheduled, not yet fired or cancelled) events.
  std::size_t live() const { return live_; }

 private:
  struct Entry {
    SimTime time;
    EventId id;
  };

  static constexpr unsigned kSlotBits = 24;
  static constexpr EventId kSlotMask = (EventId{1} << kSlotBits) - 1;

  static bool before(const Entry& a, const Entry& b) {
    return a.time < b.time || (a.time == b.time && a.id < b.id);
  }
  bool stale(const Entry& e) const { return owner_[e.id & kSlotMask] != e.id; }
  void release(std::size_t slot);
  void drop_stale_top();
  void pop_top();
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  void rebuild();

  std::vector<Entry> heap_;
  std::vector<Callback> callbacks_;  ///< per slot
  std::vector<EventId> owner_;       ///< per slot: its live id, 0 when free
  std::vector<std::uint32_t> free_;  ///< free slots, reused LIFO
  std::uint64_t sequence_ = 0;       ///< schedules so far
  std::size_t live_ = 0;
};

}  // namespace smiless::sim
