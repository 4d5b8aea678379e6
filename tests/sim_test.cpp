#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "sim/clock.hpp"
#include "sim/engine.hpp"

namespace smiless::sim {
namespace {

TEST(NextTime, PeeksTheEarliestLiveEventWithoutPopping) {
  Engine e;
  EXPECT_TRUE(std::isinf(e.next_time()));
  e.schedule_at(3.0, [] {});
  const EventId first = e.schedule_at(1.0, [] {});
  EXPECT_DOUBLE_EQ(e.next_time(), 1.0);
  EXPECT_DOUBLE_EQ(e.next_time(), 1.0);  // peek is repeatable
  EXPECT_EQ(e.pending(), 2u);            // nothing was popped

  // Cancelling the head reclaims the tombstone; the peek moves on.
  EXPECT_TRUE(e.cancel(first));
  EXPECT_DOUBLE_EQ(e.next_time(), 3.0);
  e.run_until(5.0);
  EXPECT_TRUE(std::isinf(e.next_time()));
}

TEST(ImmediateClock, NeverDelaysOrInterrupts) {
  ImmediateClock clock;
  clock.start(0.0);  // default start is a no-op
  EXPECT_TRUE(clock.wait_until(0.0));
  EXPECT_TRUE(clock.wait_until(1e12));
}

TEST(Engine, RunsEventsInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(3.0, [&] { order.push_back(3); });
  e.schedule_at(1.0, [&] { order.push_back(1); });
  e.schedule_at(2.0, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, SimultaneousEventsFireInScheduleOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(1.0, [&] { order.push_back(1); });
  e.schedule_at(1.0, [&] { order.push_back(2); });
  e.schedule_at(1.0, [&] { order.push_back(3); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, NowAdvancesToEventTime) {
  Engine e;
  double seen = -1.0;
  e.schedule_at(5.5, [&] { seen = e.now(); });
  e.run_until(10.0);
  EXPECT_DOUBLE_EQ(seen, 5.5);
  EXPECT_DOUBLE_EQ(e.now(), 10.0);
}

TEST(Engine, RunUntilLeavesFutureEventsPending) {
  Engine e;
  bool fired = false;
  e.schedule_at(5.0, [&] { fired = true; });
  e.run_until(4.0);
  EXPECT_FALSE(fired);
  EXPECT_EQ(e.pending(), 1u);
  e.run_until(6.0);
  EXPECT_TRUE(fired);
}

TEST(Engine, CancelPreventsExecution) {
  Engine e;
  bool fired = false;
  const EventId id = e.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(e.cancel(id));
  EXPECT_FALSE(e.cancel(id));  // second cancel is a no-op
  e.run_until(2.0);
  EXPECT_FALSE(fired);
}

TEST(Engine, ScheduleAfterIsRelative) {
  Engine e;
  double seen = -1.0;
  e.schedule_at(2.0, [&] {
    e.schedule_after(3.0, [&] { seen = e.now(); });
  });
  e.run_until(10.0);
  EXPECT_DOUBLE_EQ(seen, 5.0);
}

TEST(Engine, EventsCanScheduleAtCurrentTime) {
  Engine e;
  int count = 0;
  e.schedule_at(1.0, [&] {
    ++count;
    e.schedule_at(e.now(), [&] { ++count; });
  });
  e.run_until(2.0);
  EXPECT_EQ(count, 2);
}

TEST(Engine, RejectsSchedulingInThePast) {
  Engine e;
  e.schedule_at(5.0, [] {});
  e.run_until(5.0);
  EXPECT_THROW(e.schedule_at(4.0, [] {}), CheckError);
}

TEST(Engine, CascadedEventChains) {
  Engine e;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) e.schedule_after(0.5, chain);
  };
  e.schedule_at(0.0, chain);
  e.run_until(100.0);
  EXPECT_EQ(depth, 100);
}

TEST(Engine, PendingCountTracksCancellations) {
  Engine e;
  const EventId a = e.schedule_at(1.0, [] {});
  e.schedule_at(2.0, [] {});
  EXPECT_EQ(e.pending(), 2u);
  e.cancel(a);
  EXPECT_EQ(e.pending(), 1u);
}

TEST(Engine, FifoHoldsAcrossBucketResizes) {
  // Enough events to force the calendar's bucket array through several
  // growth resizes, with two big same-timestamp cohorts interleaved at
  // schedule time: each cohort must still fire in its schedule order.
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 600; ++i) {
    e.schedule_at(1.0, [&order, i] { order.push_back(i); });
    e.schedule_at(2.0, [&order, i] { order.push_back(600 + i); });
  }
  e.run();
  ASSERT_EQ(order.size(), 1200u);
  for (int i = 0; i < 1200; ++i) ASSERT_EQ(order[i], i);
}

TEST(Engine, RunUntilOnEmptyQueueStillAdvancesClock) {
  Engine e;
  e.run_until(7.25);
  EXPECT_DOUBLE_EQ(e.now(), 7.25);
  e.schedule_at(8.0, [] {});
  e.run_until(20.0);  // drains early at t=8, clock must still land on end
  EXPECT_DOUBLE_EQ(e.now(), 20.0);
  EXPECT_EQ(e.pending(), 0u);
}

TEST(Engine, TombstonedEventsNeverFireNorCountAsPending) {
  Engine e;
  int fired = 0;
  std::vector<EventId> ids;
  for (int i = 0; i < 10; ++i)
    ids.push_back(e.schedule_at(1.0, [&] { ++fired; }));
  for (int i = 0; i < 10; i += 2) EXPECT_TRUE(e.cancel(ids[static_cast<std::size_t>(i)]));
  EXPECT_EQ(e.pending(), 5u);
  e.run();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(e.stats().fired, 5u);
  EXPECT_EQ(e.stats().cancelled, 5u);
}

TEST(Engine, RejectsNegativeDelay) {
  Engine e;
  EXPECT_THROW(e.schedule_after(-0.5, [] {}), CheckError);
}

TEST(Engine, StatsCountScheduledFiredCancelled) {
  Engine e;
  const EventId a = e.schedule_at(1.0, [] {});
  e.schedule_at(2.0, [] {});
  e.schedule_at(3.0, [] {});
  e.cancel(a);
  e.run();
  EXPECT_EQ(e.stats().scheduled, 3u);
  EXPECT_EQ(e.stats().fired, 2u);
  EXPECT_EQ(e.stats().cancelled, 1u);
}

class RandomEventSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomEventSweep, EventsAlwaysFireInNonDecreasingTimeOrder) {
  // Property: whatever the scheduling pattern (including events scheduled
  // from inside events and random cancellations), observed firing times are
  // non-decreasing and every non-cancelled event fires exactly once.
  Rng rng(GetParam());
  Engine e;
  std::vector<double> fired;
  std::vector<EventId> cancellable;
  int scheduled = 0;
  std::function<void(double)> spawn = [&](double t) {
    fired.push_back(t);
    if (scheduled < 200) {
      const double next = t + rng.uniform(0.0, 3.0);
      ++scheduled;
      e.schedule_at(next, [&, next] { spawn(next); });
      if (rng.bernoulli(0.3)) {
        ++scheduled;
        cancellable.push_back(e.schedule_at(t + rng.uniform(0.0, 5.0), [&] {
          fired.push_back(e.now());
        }));
      }
      if (!cancellable.empty() && rng.bernoulli(0.4)) {
        e.cancel(cancellable.back());
        cancellable.pop_back();
      }
    }
  };
  e.schedule_at(0.0, [&] { spawn(0.0); });
  e.run_until(1e6);
  ASSERT_GT(fired.size(), 100u);
  for (std::size_t i = 1; i < fired.size(); ++i) EXPECT_LE(fired[i - 1], fired[i] + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomEventSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace smiless::sim
