#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "common/rng.hpp"
#include "math/stats.hpp"
#include "workload/arrival_cursor.hpp"
#include "workload/trace.hpp"

namespace smiless::workload {
namespace {

TEST(Trace, GeneratesRequestedWindowCount) {
  Rng rng(1);
  TraceOptions o;
  o.duration = 300.0;
  const Trace t = generate_trace(o, rng);
  EXPECT_EQ(t.counts.size(), 300u);
}

TEST(Trace, ArrivalsMatchCounts) {
  Rng rng(2);
  TraceOptions o;
  o.duration = 120.0;
  const Trace t = generate_trace(o, rng);
  std::size_t total = 0;
  for (int c : t.counts) total += static_cast<std::size_t>(c);
  EXPECT_EQ(t.arrivals.size(), total);
}

TEST(Trace, ArrivalsAreSortedAndInRange) {
  Rng rng(3);
  TraceOptions o;
  o.duration = 200.0;
  const Trace t = generate_trace(o, rng);
  EXPECT_TRUE(std::is_sorted(t.arrivals.begin(), t.arrivals.end()));
  for (double a : t.arrivals) {
    EXPECT_GE(a, 0.0);
    EXPECT_LT(a, o.duration);
  }
}

TEST(Trace, DeterministicForSameSeed) {
  TraceOptions o;
  o.duration = 100.0;
  Rng r1(7), r2(7);
  const Trace a = generate_trace(o, r1);
  const Trace b = generate_trace(o, r2);
  EXPECT_EQ(a.counts, b.counts);
  EXPECT_EQ(a.arrivals, b.arrivals);
}

TEST(Trace, MeanRateApproximatelyRespected) {
  Rng rng(4);
  TraceOptions o;
  o.duration = 5000.0;
  o.mean_rate = 0.5;
  o.burst_start_prob = 0.0;
  o.idle_start_prob = 0.0;
  o.diurnal_amplitude = 0.0;
  const Trace t = generate_trace(o, rng);
  const double rate = static_cast<double>(t.arrivals.size()) / o.duration;
  EXPECT_NEAR(rate, 0.5, 0.05);
}

TEST(Trace, BurstsInflateVarianceToMeanBeyondPaperThreshold) {
  // §VII-C2: the evaluation trace has a variance-to-mean ratio > 2.
  Rng rng(5);
  TraceOptions o;
  o.duration = 4000.0;
  o.burst_start_prob = 0.01;
  o.burst_magnitude = 10.0;
  const Trace t = generate_trace(o, rng);
  EXPECT_GT(math::variance_to_mean(t.counts_as_double()), 2.0);
}

TEST(Trace, InterarrivalsArePositive) {
  Rng rng(6);
  TraceOptions o;
  o.duration = 500.0;
  const Trace t = generate_trace(o, rng);
  for (double g : t.interarrivals()) EXPECT_GE(g, 0.0);
}

TEST(Trace, IdleGapsProduceZeroWindows) {
  Rng rng(7);
  TraceOptions o;
  o.duration = 2000.0;
  o.idle_start_prob = 0.05;
  o.idle_duration = 40.0;
  const Trace t = generate_trace(o, rng);
  const auto zeros = std::count(t.counts.begin(), t.counts.end(), 0);
  EXPECT_GT(zeros, 100);
}

TEST(Trace, PresetsDifferAcrossWorkloads) {
  const auto wl1 = preset_for_workload("WL1-AMBER-Alert", 100.0);
  const auto wl3 = preset_for_workload("WL3-Voice-Assistant", 100.0);
  EXPECT_GT(wl1.burst_magnitude, wl3.burst_magnitude);
  EXPECT_LT(wl1.mean_rate, wl3.mean_rate);
}

TEST(Trace, GeneratorsRejectDurationsAboveTheCeiling) {
  Rng rng(12);
  TraceOptions o;
  o.duration = 2.0 * kMaxTraceDuration;
  EXPECT_THROW(generate_trace(o, rng), CheckError);
  EXPECT_THROW(generate_burst_window(0.5, 12.0, rng, 2.0 * kMaxTraceDuration), CheckError);
}

TEST(Trace, GeneratorsRejectRatesAboveTheArrivalCeiling) {
  // Each just over 10^7 expected arrivals, so a generator without the check
  // builds the trace instead of throwing.
  Rng rng(13);
  EXPECT_THROW(generate_regular_trace(9e-5, 0.05, 1000.0, rng), CheckError);
  EXPECT_THROW(generate_burst_window(0.5, 2e5, rng, 60.0), CheckError);
  EXPECT_THROW(
      generate_burst_window(0.5, std::numeric_limits<double>::infinity(), rng, 60.0),
      CheckError);
}

TEST(BurstWindow, PeakExceedsQuietPhase) {
  Rng rng(8);
  const Trace t = generate_burst_window(0.5, 12.0, rng);
  ASSERT_EQ(t.counts.size(), 60u);
  double quiet = 0.0, peak = 0.0;
  for (std::size_t i = 0; i < 20; ++i) quiet += t.counts[i];
  for (std::size_t i = 20; i < 40; ++i) peak += t.counts[i];
  EXPECT_GT(peak, quiet * 3.0);
}

TEST(RegularTrace, MeanIntervalMatches) {
  Rng rng(9);
  const auto t = generate_regular_trace(5.0, 0.05, 600.0, rng);
  const auto gaps = t.interarrivals();
  ASSERT_GT(gaps.size(), 50u);
  EXPECT_NEAR(math::mean(gaps), 5.0, 0.2);
  // Low jitter: coefficient of variation well under the Poisson value of 1.
  EXPECT_LT(math::stddev(gaps) / math::mean(gaps), 0.15);
}

TEST(RegularTrace, CountsBucketArrivals) {
  Rng rng(10);
  const auto t = generate_regular_trace(3.0, 0.02, 60.0, rng);
  long total = 0;
  for (int c : t.counts) total += c;
  EXPECT_EQ(static_cast<std::size_t>(total), t.arrivals.size());
}

TEST(RegularTrace, RejectsDegenerateParameters) {
  Rng rng(11);
  EXPECT_THROW(generate_regular_trace(0.0, 0.1, 60.0, rng), CheckError);
  EXPECT_THROW(generate_regular_trace(10.0, -0.1, 60.0, rng), CheckError);
  EXPECT_THROW(generate_regular_trace(5.0, std::numeric_limits<double>::infinity(), 60.0, rng),
               CheckError);
  EXPECT_THROW(generate_regular_trace(5.0, 1e308, 60.0, rng), CheckError);  // spread overflows
  EXPECT_THROW(generate_regular_trace(10.0, 0.1, 5.0, rng), CheckError);
  EXPECT_THROW(generate_regular_trace(10.0, 0.1, 2.0 * kMaxTraceDuration, rng), CheckError);
}

TEST(ArrivalCursor, DrainBoundsMatchTheirInjectionModes) {
  const std::vector<SimTime> arrivals = {1.0, 2.0, 2.0, 3.0, 5.0};
  std::vector<SimTime> got;
  const auto grab = [&](SimTime t) { got.push_back(t); };

  ArrivalCursor cursor(&arrivals);

  // drain_before is strict (< limit): the per-window streaming bound, so
  // the arrivals at exactly 2.0 wait for the window that starts there.
  EXPECT_EQ(cursor.drain_before(2.0, grab), 1u);
  EXPECT_EQ(got, (std::vector<SimTime>{1.0}));
  EXPECT_EQ(cursor.drain_before(3.0, grab), 2u);
  EXPECT_EQ(got, (std::vector<SimTime>{1.0, 2.0, 2.0}));
  EXPECT_FALSE(cursor.exhausted());

  // drain_all flushes the tail regardless of time.
  EXPECT_EQ(cursor.drain_all(grab), 2u);
  EXPECT_EQ(got, (std::vector<SimTime>{1.0, 2.0, 2.0, 3.0, 5.0}));
  EXPECT_TRUE(cursor.exhausted());
  EXPECT_EQ(cursor.drain_all(grab), 0u);
}

TEST(ArrivalCursor, DefaultConstructedIsExhausted) {
  ArrivalCursor cursor;
  EXPECT_TRUE(cursor.exhausted());
  EXPECT_EQ(cursor.drain_before(100.0, [](SimTime) {}), 0u);
  EXPECT_EQ(cursor.drain_all([](SimTime) {}), 0u);
}

}  // namespace
}  // namespace smiless::workload
