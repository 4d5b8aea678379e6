#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/reference_queue.hpp"

// Differential fuzz harness for the engine's event queue: the same seeded
// episode of schedule / cancel / run_until operations is replayed against
// sim::Engine and against ModelEngine — the same clock and stats over the
// heap+map pair (sim::ReferenceQueue) kept as the executable specification
// — and the two trajectories must match exactly: firing order, observed
// clocks, cancel results, pending() and next_time() probes, and
// EngineStats. The two engines mint different ids (the Engine's carry a
// slot, the model's count 1, 2, 3), so the firing order is recorded as each
// fired event's schedule index. Episodes deliberately hit the nasty corners:
// same-timestamp bursts, cancel-after-fire, cancel-twice,
// schedule-during-fire, cancel-during-fire, peeks during fire, zero-length
// run_until steps, cancelled slots reused at a tied timestamp, and
// far-future outliers.

namespace smiless::sim {
namespace {

/// sim::Engine's clock and stats bookkeeping over the ReferenceQueue: the
/// model the Engine must match event for event.
class ModelEngine {
 public:
  using Callback = std::function<void()>;

  SimTime now() const { return now_; }
  EventId schedule_at(SimTime t, Callback cb) {
    const EventId id = next_id_++;
    ++stats_.scheduled;
    queue_.schedule(t, id, std::move(cb));
    return id;
  }
  bool cancel(EventId id) {
    const bool cancelled = queue_.cancel(id);
    if (cancelled) ++stats_.cancelled;
    return cancelled;
  }
  void run_until(SimTime end) {
    SimTime t = 0.0;
    EventId id = 0;
    Callback cb;
    while (queue_.pop_due(end, &t, &id, &cb)) {
      now_ = t;
      ++stats_.fired;
      cb();
      cb = nullptr;
    }
    now_ = end;
  }
  void run() { run_until(std::numeric_limits<SimTime>::max()); }
  std::size_t pending() const { return queue_.live(); }
  SimTime next_time() { return queue_.next_time(); }
  const EngineStats& stats() const { return stats_; }

 private:
  SimTime now_ = 0.0;
  EventId next_id_ = 1;
  EngineStats stats_;
  ReferenceQueue queue_;
};

struct Trace {
  std::vector<double> fire_times;
  std::vector<std::size_t> fire_order;  ///< schedule index of each fired event
  std::vector<double> clock_probes;
  std::vector<bool> cancel_results;
  std::vector<std::size_t> pending_probes;
  std::vector<double> next_time_probes;
  std::uint64_t scheduled = 0;
  std::uint64_t fired = 0;
  std::uint64_t cancelled = 0;
  std::size_t final_pending = 0;
  double final_now = 0.0;

  bool operator==(const Trace&) const = default;
};

// Mostly-quantized offsets so exact timestamp collisions are common (both
// within one run_until window and across them); occasionally a continuous
// or far-future draw.
double next_offset(Rng& rng) {
  const int kind = rng.uniform_int(0, 9);
  if (kind < 6) return 0.25 * rng.uniform_int(0, 12);  // ties, incl. offset 0
  if (kind < 9) return rng.uniform(0.0, 40.0);
  return rng.uniform(1e4, 1e7);  // far-future outlier
}

template <typename E>
Trace run_episode(std::uint64_t seed, int max_schedules) {
  Rng rng(seed);
  E e;
  Trace tr;
  std::vector<EventId> ids;  // every id ever issued — fired/cancelled stay in
  int budget = max_schedules;

  std::function<void(double)> schedule_one = [&](double t) {
    const std::size_t index = ids.size();
    ids.push_back(e.schedule_at(t, [&, index] {
      tr.fire_times.push_back(e.now());
      tr.fire_order.push_back(index);
      if (budget > 0 && rng.bernoulli(0.4)) {  // schedule-during-fire
        --budget;
        schedule_one(e.now() + next_offset(rng));
      }
      if (!ids.empty() && rng.bernoulli(0.3)) {  // cancel-during-fire
        const EventId victim = ids[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(ids.size()) - 1))];
        tr.cancel_results.push_back(e.cancel(victim));
      }
      if (rng.bernoulli(0.2)) tr.next_time_probes.push_back(e.next_time());  // peek-during-fire
    }));
  };

  const int steps = max_schedules * 2;
  for (int step = 0; step < steps; ++step) {
    const int op = rng.uniform_int(0, 9);
    if (op <= 4) {
      if (budget > 0) {
        --budget;
        const double t = e.now() + next_offset(rng);
        // Same-timestamp burst: a run of events at one instant.
        const int burst = rng.bernoulli(0.25) ? rng.uniform_int(2, 6) : 1;
        for (int i = 0; i < burst && budget >= 0; ++i) schedule_one(t);
      }
    } else if (op <= 6) {
      if (!ids.empty()) {
        const EventId victim = ids[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(ids.size()) - 1))];
        tr.cancel_results.push_back(e.cancel(victim));         // may be cancel-after-fire
        if (rng.bernoulli(0.3)) tr.cancel_results.push_back(e.cancel(victim));  // cancel-twice
      }
    } else if (op == 7) {
      e.run_until(e.now() + rng.uniform(0.0, 15.0));
      tr.clock_probes.push_back(e.now());
    } else if (op == 8) {
      e.run_until(e.now());  // zero-length step: drains exactly-now events only
      tr.clock_probes.push_back(e.now());
    } else {
      tr.pending_probes.push_back(e.pending());
      tr.next_time_probes.push_back(e.next_time());
    }
  }
  e.run();

  tr.scheduled = e.stats().scheduled;
  tr.fired = e.stats().fired;
  tr.cancelled = e.stats().cancelled;
  tr.final_pending = e.pending();
  tr.final_now = e.now();
  return tr;
}

void expect_identical(std::uint64_t seed, int max_schedules) {
  const Trace got = run_episode<Engine>(seed, max_schedules);
  const Trace ref = run_episode<ModelEngine>(seed, max_schedules);
  ASSERT_EQ(got.fire_order, ref.fire_order) << "seed " << seed;
  EXPECT_EQ(got.fire_times, ref.fire_times) << "seed " << seed;
  EXPECT_EQ(got.clock_probes, ref.clock_probes) << "seed " << seed;
  EXPECT_EQ(got.cancel_results, ref.cancel_results) << "seed " << seed;
  EXPECT_EQ(got.pending_probes, ref.pending_probes) << "seed " << seed;
  EXPECT_EQ(got.next_time_probes, ref.next_time_probes) << "seed " << seed;
  EXPECT_TRUE(got == ref) << "seed " << seed;
  // Sanity on the episode itself: non-trivial and internally consistent.
  EXPECT_EQ(got.scheduled, got.fired + got.cancelled + got.final_pending) << "seed " << seed;
  EXPECT_EQ(got.final_pending, 0u) << "run() must drain; seed " << seed;
}

// Deep episodes: a moderate number of seeds, several hundred events each.
class DifferentialDeep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DifferentialDeep, CalendarMatchesReferenceExactly) {
  expect_identical(GetParam(), 400);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialDeep,
                         ::testing::Range<std::uint64_t>(1, 25));

// Wide sweep: thousands of short episodes, sharded so sanitizer flavors can
// run them in parallel. Together the shards cover 10k+ seeded iterations.
class DifferentialWide : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialWide, ManySeededEpisodes) {
  constexpr int kShards = 8;
  constexpr int kEpisodesPerShard = 1300;  // 8 * 1300 = 10400 iterations
  const int shard = GetParam();
  for (int i = 0; i < kEpisodesPerShard; ++i) {
    const std::uint64_t seed =
        0xC0FFEEull + static_cast<std::uint64_t>(shard) * kEpisodesPerShard + i;
    expect_identical(seed, 24);
    if (HasFatalFailure()) return;
  }
  (void)kShards;
}

INSTANTIATE_TEST_SUITE_P(Shards, DifferentialWide, ::testing::Range(0, 8));

// --- Ordering and cancellation corners ------------------------------------

TEST(EventQueue, LargeBacklogDrainsCompletely) {
  Engine e;
  std::vector<double> fired;
  for (int i = 0; i < 5000; ++i)
    e.schedule_at(0.001 * i, [&] { fired.push_back(e.now()); });
  EXPECT_EQ(e.pending(), 5000u);
  e.run();
  EXPECT_EQ(e.pending(), 0u);
  ASSERT_EQ(fired.size(), 5000u);
  for (int i = 0; i < 5000; ++i) ASSERT_EQ(fired[static_cast<std::size_t>(i)], 0.001 * i);
}

TEST(CalendarQueue, SameTimestampPileFiresInScheduleOrder) {
  // A pile of identical timestamps is ordered by id alone: FIFO must hold
  // across thousands of ties.
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 4000; ++i)
    e.schedule_at(7.5, [&order, i] { order.push_back(i); });
  e.run();
  ASSERT_EQ(order.size(), 4000u);
  for (int i = 0; i < 4000; ++i) ASSERT_EQ(order[i], i);
}

TEST(EventQueue, SparseTailFiresInOrder) {
  Engine e;
  std::vector<double> fired;
  e.schedule_at(0.0, [&] { fired.push_back(e.now()); });
  e.schedule_at(5.0e6, [&] { fired.push_back(e.now()); });
  e.run();
  EXPECT_EQ(fired, (std::vector<double>{0.0, 5.0e6}));
}

TEST(CalendarQueue, FarFutureAndInfiniteTimesAreOrderedCorrectly) {
  Engine e;
  std::vector<int> order;
  const EventId inf_ev =
      e.schedule_at(std::numeric_limits<double>::infinity(), [&] { order.push_back(9); });
  e.schedule_at(1.0e18, [&] { order.push_back(2); });
  e.schedule_at(1.0, [&] { order.push_back(1); });
  e.run_until(2.0);
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(e.pending(), 2u);
  EXPECT_TRUE(e.cancel(inf_ev));
  e.run_until(1.0e19);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(e.pending(), 0u);
}

TEST(CalendarQueue, CancelEverythingThenReuse) {
  Engine e;
  std::vector<EventId> ids;
  for (int i = 0; i < 200; ++i) ids.push_back(e.schedule_at(1.0 + i, [] {}));
  for (EventId id : ids) EXPECT_TRUE(e.cancel(id));
  EXPECT_EQ(e.pending(), 0u);
  int fired = 0;
  e.schedule_at(500.0, [&] { ++fired; });
  e.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.stats().cancelled, 200u);
}

TEST(CalendarQueue, ReferenceEngineHonorsSameContract) {
  // The reference model itself must satisfy the Engine contract the rest of
  // the suite checks on sim::Engine; spot-check the basics.
  ModelEngine e;
  std::vector<int> order;
  e.schedule_at(1.0, [&] { order.push_back(1); });
  e.schedule_at(1.0, [&] { order.push_back(2); });
  const EventId id = e.schedule_at(0.5, [&] { order.push_back(0); });
  EXPECT_TRUE(e.cancel(id));
  EXPECT_EQ(e.pending(), 2u);
  e.run_until(3.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_DOUBLE_EQ(e.now(), 3.0);
}

TEST(EventQueue, StaleIdCannotCancelAReusedSlot) {
  constexpr EventId kSlotMask = (EventId{1} << 24) - 1;
  EventQueue q;
  std::vector<int> fired;
  const EventId old_id = q.schedule(1.0, [&] { fired.push_back(0); });
  const EventId tie = q.schedule(2.0, [&] { fired.push_back(1); });
  EXPECT_TRUE(q.cancel(old_id));
  // The freed slot is reused at once, by an event that ties with `tie`.
  const EventId reused = q.schedule(2.0, [&] { fired.push_back(2); });
  ASSERT_EQ(reused & kSlotMask, old_id & kSlotMask);
  EXPECT_NE(reused, old_id);
  EXPECT_GT(reused, tie);
  EXPECT_FALSE(q.cancel(old_id));
  EXPECT_FALSE(q.cancel(0));
  EXPECT_EQ(q.live(), 2u);
  SimTime t = 0.0;
  EventId id = 0;
  EventQueue::Callback cb;
  while (q.pop_due(10.0, &t, &id, &cb)) cb();
  // Same time: schedule order, not slot order.
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  EXPECT_EQ(q.live(), 0u);
  // A fired event's id is stale too, once its slot is reused.
  q.schedule(3.0, [] {});
  EXPECT_FALSE(q.cancel(reused));
  EXPECT_FALSE(q.cancel(tie));
  EXPECT_EQ(q.live(), 1u);
}

TEST(EventQueue, RebuildKeepsFireOrder) {
  // Thousands of far-future events, most of them cancelled: the stale heap
  // entries outgrow the live ones and the heap is rebuilt, several times.
  // Survivors and later events (some tied with survivors) must still fire
  // in (time, schedule order), with pending() exact throughout.
  Engine e;
  struct Fired {
    SimTime time;
    int order;
    bool operator==(const Fired&) const = default;
  };
  std::vector<Fired> fired;
  std::vector<Fired> expected;
  std::vector<EventId> ids;
  int order = 0;
  const auto schedule = [&](SimTime t) {
    const int mine = order++;
    ids.push_back(e.schedule_at(t, [&fired, &e, mine] { fired.push_back({e.now(), mine}); }));
    return mine;
  };
  for (int i = 0; i < 4000; ++i) schedule(1000.0 + (i * 37) % 500);
  std::size_t pending = 4000;
  for (int i = 0; i < 4000; ++i) {
    if (i % 25 == 0) {
      expected.push_back({1000.0 + (i * 37) % 500, i});
      continue;
    }
    ASSERT_TRUE(e.cancel(ids[static_cast<std::size_t>(i)]));
    ASSERT_EQ(e.pending(), --pending);
  }
  EXPECT_EQ(e.pending(), 160u);
  for (int i = 0; i < 300; ++i) {
    const SimTime t = 900.0 + (i * 11) % 700;
    expected.push_back({t, schedule(t)});
    EXPECT_EQ(e.pending(), ++pending);
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Fired& a, const Fired& b) { return a.time < b.time; });
  e.run();
  EXPECT_EQ(e.pending(), 0u);
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(e.stats().cancelled, 3840u);
}

}  // namespace
}  // namespace smiless::sim
