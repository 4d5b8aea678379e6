#pragma once

#include <cstdint>
#include <functional>

#include "common/check.hpp"
#include "common/units.hpp"
#include "sim/event_queue.hpp"

namespace smiless::prof {
class Profiler;
}

namespace smiless::sim {

/// Lifetime counters over an Engine's event queue, surfaced through the
/// observability metric registry. Pure simulation-domain tallies — the
/// differential fuzz harness asserts the reference model counts the same.
struct EngineStats {
  std::uint64_t scheduled = 0;
  std::uint64_t fired = 0;
  std::uint64_t cancelled = 0;
};

/// Discrete-event simulation engine: a clock plus an ordered queue of
/// cancellable callbacks. Events at the same timestamp fire in scheduling
/// order, which makes whole experiments deterministic.
///
/// The queue behind the clock is sim::EventQueue, a 4-ary heap of (time, id)
/// keys over callback slots (DESIGN.md §13). Its executable specification,
/// sim::ReferenceQueue, lives outside the engine: the differential fuzz
/// harness and the throughput bench's hold-model micro drive both and
/// demand the same firing order.
class Engine {
 public:
  using Callback = std::function<void()>;

  Engine() = default;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  SimTime now() const { return now_; }

  /// Schedule `cb` at absolute sim time `t` (>= now). Returns a handle
  /// usable with cancel(); the platform cancels pre-warm timers with it,
  /// and keep-alive reap timers when their instance is terminated, evicted
  /// or finalized, or its keep-alive shrinks (a warm claim cancels nothing).
  EventId schedule_at(SimTime t, Callback cb);

  /// Schedule `cb` after `delay` seconds (>= 0).
  EventId schedule_after(double delay, Callback cb) {
    SMILESS_CHECK(delay >= 0.0);
    return schedule_at(now_ + delay, std::move(cb));
  }

  /// Cancel a pending event; returns false if it already fired or was
  /// cancelled.
  bool cancel(EventId id);

  /// Run events until the queue is empty or the clock would pass `end`;
  /// leaves now() == end when it drains early.
  void run_until(SimTime end);

  /// Run until the queue drains completely.
  void run();

  /// Live pending events; cancelled (tombstoned) events are excluded.
  std::size_t pending() const { return queue_.live(); }

  /// Sim time of the earliest live pending event, or +infinity when the
  /// queue is empty. Non-const because the queue drops the cancelled
  /// entries above the head — a trajectory-neutral side effect. This is the
  /// peek a paced lane loop (DESIGN.md §16) uses to decide which instant
  /// to wait for next; an unpaced run never calls it.
  SimTime next_time() { return queue_.next_time(); }

  const EngineStats& stats() const { return stats_; }

  /// Attach (or detach, with nullptr) the runtime self-profiler. When set,
  /// run_until/schedule_at/cancel record wall-time scopes and the engine
  /// samples its internal stats (live events, EngineStats) as
  /// deterministic sim-time counters every kSampleInterval fired events.
  /// Null means zero overhead beyond one pointer test per call.
  void set_profiler(prof::Profiler* p) { prof_ = p; }
  prof::Profiler* profiler() const { return prof_; }

  /// Counter-sampling cadence in fired events (power of two; the sample
  /// points depend only on the trajectory, never on the wall clock).
  static constexpr std::uint64_t kSampleInterval = 1ull << 14;

 private:
  void sample_counters(SimTime t);

  SimTime now_ = 0.0;
  EngineStats stats_;
  EventQueue queue_;
  prof::Profiler* prof_ = nullptr;  ///< optional self-profiler (not owned)
};

}  // namespace smiless::sim
