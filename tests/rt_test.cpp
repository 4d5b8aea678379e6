// Tests for the pacing seam (sim::Clock under the lane loop) and the
// live-serving mode behind it (src/rt, exp::serve). The load-bearing
// contract, from DESIGN.md §16: a clock only delays — it never reorders,
// drops or inserts work — so the sim trajectory of a paced run is identical
// to the discrete-event run of the same config. The equivalence suite here
// holds pacing to that: same request terminal states, same ledger totals,
// same event counts (wall-clock fields excluded — no Event carries one).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/catalog.hpp"
#include "exp/runner.hpp"
#include "exp/serve.hpp"
#include "fingerprint.hpp"
#include "obs/event_bus.hpp"
#include "obs/stream_sink.hpp"
#include "obs/telemetry.hpp"
#include "rt/wall_clock.hpp"
#include "serverless/platform_view.hpp"
#include "serverless/policy.hpp"
#include "serverless/sharding.hpp"
#include "sim/clock.hpp"

using namespace smiless;

namespace {

// ---------------------------------------------------------------------------
// WallClock
// ---------------------------------------------------------------------------

TEST(WallClock, HighSpeedupWaitsReturnPromptly) {
  rt::WallClock clock(1e9);
  clock.start(0.0);
  EXPECT_TRUE(clock.wait_until(100.0));   // 100 sim-s = 100 wall-ns
  EXPECT_TRUE(clock.wait_until(3600.0));
  EXPECT_EQ(clock.waits(), 2u);
  EXPECT_GE(clock.max_lag_seconds(), 0.0);
  EXPECT_GE(clock.wall_elapsed_seconds(), 0.0);
}

TEST(WallClock, PacesAgainstTheSpeedupFactor) {
  // 1000 sim-seconds per wall-second: 20 sim-s should take >= 20 wall-ms.
  rt::WallClock clock(1000.0);
  clock.start(0.0);
  EXPECT_TRUE(clock.wait_until(20.0));
  EXPECT_GE(clock.wall_elapsed_seconds(), 0.02);
}

TEST(WallClock, RequestStopAbortsTheWait) {
  rt::WallClock clock(1.0);  // natural rate: a 1000 s wait would block forever
  clock.start(0.0);
  std::thread stopper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    clock.request_stop();
  });
  EXPECT_FALSE(clock.wait_until(1000.0));
  stopper.join();
  EXPECT_TRUE(clock.stop_requested());
}

// ---------------------------------------------------------------------------
// Pacing the lane loop
// ---------------------------------------------------------------------------

exp::ExperimentConfig small_cell() {
  exp::ExperimentConfig config;
  config.app = "wl1";
  config.policy = "smiless";
  config.use_lstm = false;
  config.seed = 7;
  config.trace.duration = 60.0;
  config.trace.seed = 7;
  return config;
}

/// The cell's event stream rendered as NDJSON: a byte-level view of the
/// whole trajectory the bus saw.
std::string ndjson(const obs::Telemetry& telemetry) {
  std::ostringstream out;
  obs::StreamSink sink(&out);
  for (const auto& e : telemetry.bus().events()) sink.write(e);
  return out.str();
}

TEST(Drivers, RealTimeWithImmediateClockMatchesDes) {
  // A cell paced by a clock that never delays must be the unpaced cell,
  // byte for byte.
  auto config = small_cell();
  config.obs.audit_out = "(in-memory)";  // attach telemetry, write nothing
  exp::Runner runner({/*threads=*/1, /*policy_threads=*/2});
  const auto& store = runner.profiles(config.profile_seed);
  const exp::CellResult des = exp::Runner::run_cell(config, store, runner.policy_pool());

  sim::ImmediateClock immediate;
  const exp::CellResult paced =
      exp::execute_cell(config, store, runner.policy_pool(), /*lane_threads=*/1,
                        std::make_shared<obs::Telemetry>(), nullptr, &immediate);

  EXPECT_EQ(fingerprint(paced.result), fingerprint(des.result));
  ASSERT_NE(des.telemetry, nullptr);
  ASSERT_NE(paced.telemetry, nullptr);
  EXPECT_EQ(ndjson(*paced.telemetry), ndjson(*des.telemetry));
  EXPECT_EQ(paced.telemetry->metrics_json().dump(), des.telemetry->metrics_json().dump());
  EXPECT_EQ(paced.telemetry->audit_json().dump(), des.telemetry->audit_json().dump());
}

/// Clock that records each instant it is asked for and refuses every wait
/// after the first `allowed` — a deterministic stand-in for a stop request
/// landing mid-run.
class RecordingClock final : public sim::Clock {
 public:
  explicit RecordingClock(std::size_t allowed = std::numeric_limits<std::size_t>::max())
      : allowed_(allowed) {}

  bool wait_until(SimTime t) override {
    asked.push_back(t);
    return asked.size() <= allowed_;
  }

  /// The last instant let through; -infinity before the first.
  SimTime granted() const {
    const std::size_t n = std::min(asked.size(), allowed_);
    return n == 0 ? -std::numeric_limits<double>::infinity() : asked[n - 1];
  }

  std::vector<SimTime> asked;

 private:
  std::size_t allowed_;
};

/// Policy that installs a default plan on every function and records, for
/// each arrival, its sim time and the last instant the clock had granted
/// then.
class ArrivalProbe final : public serverless::Policy {
 public:
  explicit ArrivalProbe(const RecordingClock* clock) : clock_(clock) {}
  std::string name() const override { return "probe"; }
  void on_deploy(serverless::AppId app, const apps::App& spec,
                 serverless::PlatformView& platform) override {
    for (std::size_t n = 0; n < spec.dag.size(); ++n)
      platform.set_plan(app, static_cast<dag::NodeId>(n), serverless::FunctionPlan{});
  }
  void on_arrival(serverless::AppId, const apps::App&, serverless::PlatformView&,
                  SimTime now) override {
    seen.emplace_back(now, clock_ != nullptr ? clock_->granted() : now);
  }

  std::vector<std::pair<SimTime, SimTime>> seen;  ///< (arrival, granted)

 private:
  const RecordingClock* clock_;
};

constexpr SimTime kEnd = 10.0;

struct PacedRun {
  sim::EngineStats stats;
  long submitted = 0;
  std::vector<std::pair<SimTime, SimTime>> seen;
};

/// One app on the lane loop to kEnd, paced by `clock` (null = unpaced).
PacedRun run_paced(const std::vector<SimTime>& arrivals, RecordingClock* clock) {
  serverless::ShardedPlatform platform(serverless::ShardOptions{});
  auto probe = std::make_shared<ArrivalProbe>(clock);
  platform.add_app(apps::make_amber_alert(2.0), probe, arrivals);
  platform.run(kEnd, clock);
  return {platform.engine_stats(), platform.metrics(0).submitted, probe->seen};
}

TEST(Drivers, RealTimeStreamsASourceNoEarlierThanDue) {
  // Each arrival fires at the very instant the clock let through, never
  // before it, and the clock is only ever asked to move forward.
  const std::vector<SimTime> arrivals = {0.5, 1.0, 2.25, 2.25, 7.75};
  RecordingClock clock;
  const PacedRun run = run_paced(arrivals, &clock);
  ASSERT_EQ(run.seen.size(), arrivals.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    EXPECT_EQ(run.seen[i].first, arrivals[i]);
    EXPECT_EQ(run.seen[i].first, run.seen[i].second);
  }
  ASSERT_FALSE(clock.asked.empty());
  EXPECT_TRUE(std::is_sorted(clock.asked.begin(), clock.asked.end()));
  EXPECT_LE(clock.asked.back(), kEnd);

  const PacedRun unpaced = run_paced(arrivals, nullptr);
  EXPECT_EQ(run.stats.scheduled, unpaced.stats.scheduled);
  EXPECT_EQ(run.stats.fired, unpaced.stats.fired);
  EXPECT_EQ(run.stats.cancelled, unpaced.stats.cancelled);
}

TEST(Drivers, TailFlushSchedulesPostHorizonArrivals) {
  // An arrival past the horizon is still scheduled (never fired) when the
  // run completes, paced or not, so the scheduled-event tally counts the
  // whole trace.
  RecordingClock clock;
  const PacedRun with_tail = run_paced({1.5, 50.0}, &clock);
  const PacedRun without_tail = run_paced({1.5}, nullptr);
  EXPECT_EQ(with_tail.submitted, 1);
  EXPECT_EQ(with_tail.stats.scheduled, without_tail.stats.scheduled + 1);
  EXPECT_EQ(with_tail.stats.fired, without_tail.stats.fired);
  EXPECT_EQ(run_paced({1.5, 50.0}, nullptr).stats.scheduled, with_tail.stats.scheduled);
}

TEST(Drivers, InterruptedDriveStopsWithoutFlushing) {
  const std::vector<SimTime> arrivals = {1.5, 2.5, 3.5, 4.5};
  std::vector<SimTime> with_tail = arrivals;
  with_tail.push_back(50.0);
  RecordingClock clock(2);
  RecordingClock tail_clock(2);
  const PacedRun stopped = run_paced(arrivals, &clock);
  const PacedRun stopped_tail = run_paced(with_tail, &tail_clock);

  ASSERT_EQ(clock.asked.size(), 3u);  // two granted, the third refused: no more
  // Nothing fired past the last granted instant...
  EXPECT_EQ(stopped.submitted, static_cast<long>(stopped.seen.size()));
  EXPECT_LT(stopped.submitted, static_cast<long>(arrivals.size()));
  for (const auto& [t, granted] : stopped.seen) EXPECT_LE(t, clock.asked[1]);
  // ...and the post-horizon arrival was never scheduled: no tail flush.
  EXPECT_EQ(stopped_tail.stats.scheduled, stopped.stats.scheduled);
  EXPECT_EQ(run_paced(arrivals, nullptr).submitted, static_cast<long>(arrivals.size()));
}

// ---------------------------------------------------------------------------
// DES vs wall-clock serving on a full cell
// ---------------------------------------------------------------------------

std::map<std::string, int> event_counts(const obs::Telemetry& telemetry) {
  std::map<std::string, int> counts;
  for (const auto& e : telemetry.bus().events()) ++counts[obs::event_type_name(e.type)];
  return counts;
}

TEST(ServeEquivalence, RealTimeReplayMatchesTheDesRun) {
  auto config = small_cell();
  config.obs.audit_out = "(in-memory)";  // attach telemetry, write nothing

  exp::Runner runner({/*threads=*/1, /*policy_threads=*/2});
  const auto& store = runner.profiles(config.profile_seed);
  const exp::CellResult des = exp::Runner::run_cell(config, store, runner.policy_pool());

  std::ostringstream stream;
  exp::ServeOptions sopt;
  sopt.speedup = 1e9;  // accelerated replay: live path, negligible wall time
  sopt.stream = &stream;
  const exp::ServeReport live = exp::serve(config, store, runner.policy_pool(), sopt);

  EXPECT_FALSE(live.interrupted);
  EXPECT_GT(live.batches, 0u);
  EXPECT_EQ(fingerprint(live.cell.result), fingerprint(des.result));
  ASSERT_NE(des.telemetry, nullptr);
  ASSERT_NE(live.cell.telemetry, nullptr);
  EXPECT_EQ(event_counts(*live.cell.telemetry), event_counts(*des.telemetry));
  EXPECT_EQ(live.stream_lines, live.cell.telemetry->bus().events().size());
}

TEST(ServeEquivalence, EquivalenceHoldsUnderFaults) {
  auto config = small_cell();
  config.trace.kind = "regular";
  config.trace.interval = 3.0;
  config.trace.jitter = 0.2;
  config.faults.init_failure_prob = 0.05;
  config.platform.request_timeout = 45.0;
  config.platform.max_retries = 2;

  exp::Runner runner({/*threads=*/1, /*policy_threads=*/2});
  const auto& store = runner.profiles(config.profile_seed);
  const exp::CellResult des = exp::Runner::run_cell(config, store, runner.policy_pool());

  exp::ServeOptions sopt;
  sopt.speedup = 1e9;
  const exp::ServeReport live = exp::serve(config, store, runner.policy_pool(), sopt);
  EXPECT_EQ(fingerprint(live.cell.result), fingerprint(des.result));
}

TEST(ServeEquivalence, ShardedConfigServesLikeOneLane) {
  // A serve config holds one app, so any lane count populates exactly one
  // lane: lanes = 4 streams the same events and books as lanes = 1.
  auto config = small_cell();
  exp::Runner runner({/*threads=*/1, /*policy_threads=*/2});
  const auto& store = runner.profiles(config.profile_seed);
  const auto serve_at = [&](int lanes, std::ostringstream& stream) {
    config.lanes = lanes;
    exp::ServeOptions sopt;
    sopt.speedup = 1e9;
    sopt.stream = &stream;
    return exp::serve(config, store, runner.policy_pool(), sopt);
  };
  std::ostringstream one_stream;
  std::ostringstream four_stream;
  const exp::ServeReport one = serve_at(1, one_stream);
  const exp::ServeReport four = serve_at(4, four_stream);
  EXPECT_FALSE(four.interrupted);
  EXPECT_EQ(fingerprint(four.cell.result), fingerprint(one.cell.result));
  EXPECT_FALSE(one_stream.str().empty());
  EXPECT_EQ(four_stream.str(), one_stream.str());
}

// ---------------------------------------------------------------------------
// NDJSON stream schema
// ---------------------------------------------------------------------------

TEST(StreamSink, RendersOnlyTheFieldsAnEventSet) {
  std::ostringstream out;
  obs::StreamSink sink(&out);
  obs::Event e;
  e.type = obs::EventType::RequestCompleted;
  e.t = 1.5;
  e.t2 = 1.0;
  e.app = 2;
  e.request = 7;
  sink.write(e);
  obs::Event minimal;  // defaults: every optional field suppressed
  minimal.type = obs::EventType::MachineUp;
  minimal.t = 3.0;
  sink.write(minimal);
  EXPECT_EQ(out.str(),
            "{\"type\":\"request_completed\",\"t\":1.5,\"t2\":1.0,\"app\":2,\"request\":7}\n"
            "{\"type\":\"machine_up\",\"t\":3.0}\n");
  EXPECT_EQ(sink.lines(), 2u);
}

TEST(StreamSink, LiveStreamMatchesTheDesEventStream) {
  // Rendering the DES run's retained bus through the sink must produce the
  // same bytes the live stream flushed event-by-event: the stream is a pure
  // function of the trajectory, not of the pacing.
  auto config = small_cell();
  config.obs.audit_out = "(in-memory)";
  exp::Runner runner({/*threads=*/1, /*policy_threads=*/2});
  const auto& store = runner.profiles(config.profile_seed);
  const exp::CellResult des = exp::Runner::run_cell(config, store, runner.policy_pool());

  std::ostringstream live_stream;
  exp::ServeOptions sopt;
  sopt.speedup = 1e9;
  sopt.stream = &live_stream;
  (void)exp::serve(config, store, runner.policy_pool(), sopt);

  std::ostringstream replay;
  obs::StreamSink sink(&replay);
  ASSERT_NE(des.telemetry, nullptr);
  for (const auto& e : des.telemetry->bus().events()) sink.write(e);
  EXPECT_EQ(live_stream.str(), replay.str());
}

TEST(StreamSink, GoldenStreamIsByteStable) {
  std::ostringstream stream;
  exp::Runner runner({/*threads=*/1, /*policy_threads=*/2});
  const auto config = small_cell();
  exp::ServeOptions sopt;
  sopt.speedup = 1e9;
  sopt.stream = &stream;
  (void)exp::serve(config, runner.profiles(config.profile_seed), runner.policy_pool(), sopt);

  const std::string golden_path = std::string(SMILESS_GOLDEN_DIR) + "/serve_stream.ndjson";
  std::ifstream in(golden_path);
  ASSERT_TRUE(in.good()) << "missing golden " << golden_path;
  std::ostringstream golden;
  golden << in.rdbuf();
  if (stream.str() != golden.str()) {
    const std::string actual_path = "serve_stream.actual.ndjson";
    std::ofstream(actual_path) << stream.str();
    FAIL() << "NDJSON stream drifted from " << golden_path << "; actual written to ./"
           << actual_path << " — inspect the diff, and update the golden only for an"
           << " intentional schema change.";
  }
}

}  // namespace
