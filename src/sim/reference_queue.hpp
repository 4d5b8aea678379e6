#pragma once

#include <cstddef>
#include <functional>
#include <limits>
#include <map>
#include <queue>
#include <vector>

#include "common/units.hpp"
#include "sim/event_queue.hpp"  // EventId

namespace smiless::sim {

/// The simulator's first event queue, kept verbatim as the executable
/// specification of the Engine's ordering contract: a binary heap of
/// (time, id) keys shadowed by a `std::map<EventId, Callback>` whose
/// presence marks an event live. Nothing in the simulator runs on it. The
/// differential fuzz harness (tests/event_queue_test.cpp) drives a model
/// engine over it side by side with sim::Engine and demands identical
/// firing orders, clocks and stats; the throughput bench's hold-model micro
/// runs both queues and fails unless they fire the same (time, schedule
/// order) sequence.
class ReferenceQueue {
 public:
  using Callback = std::function<void()>;

  void schedule(SimTime t, EventId id, Callback cb) {
    queue_.push({t, id});
    callbacks_.emplace(id, std::move(cb));
  }

  bool cancel(EventId id) { return callbacks_.erase(id) != 0; }

  bool pop_due(SimTime end, SimTime* t, EventId* id, Callback* cb) {
    while (!queue_.empty()) {
      const QueuedEvent ev = queue_.top();
      auto it = callbacks_.find(ev.id);
      if (it == callbacks_.end()) {  // cancelled
        queue_.pop();
        continue;
      }
      if (ev.time > end) return false;
      queue_.pop();
      *cb = std::move(it->second);
      callbacks_.erase(it);
      *t = ev.time;
      *id = ev.id;
      return true;
    }
    return false;
  }

  /// Time of the earliest live event, or +infinity when empty. Discards
  /// tombstoned heap entries on the way down (trajectory-neutral — they
  /// would be skipped by the next pop_due anyway).
  SimTime next_time() {
    while (!queue_.empty() && callbacks_.find(queue_.top().id) == callbacks_.end())
      queue_.pop();
    return queue_.empty() ? std::numeric_limits<double>::infinity() : queue_.top().time;
  }

  std::size_t live() const { return callbacks_.size(); }

 private:
  struct QueuedEvent {
    SimTime time;
    EventId id;
    bool operator>(const QueuedEvent& o) const {
      if (time != o.time) return time > o.time;
      return id > o.id;  // FIFO among simultaneous events
    }
  };

  std::priority_queue<QueuedEvent, std::vector<QueuedEvent>, std::greater<>> queue_;
  // Deterministic by construction (detlint ptr-key/unordered-iter catalog):
  // keyed by the monotonic EventId, so any future iteration is in schedule
  // order, not hash order.
  std::map<EventId, Callback> callbacks_;
};

}  // namespace smiless::sim
