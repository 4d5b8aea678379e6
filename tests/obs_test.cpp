// Tests for the observability subsystem (src/obs) and its integration with
// the experiment runner. The two load-bearing contracts:
//  1. With observability off, trajectories are bit-identical to a build that
//     never had the subsystem (pinned by an embedded pre-subsystem golden).
//  2. With observability on, the trajectory does not move, and every exported
//     artifact is a pure function of the cell list — byte-stable across
//     thread counts.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "exp/artifacts.hpp"
#include "exp/config.hpp"
#include "exp/runner.hpp"
#include "math/stats.hpp"
#include "obs/audit.hpp"
#include "obs/event_bus.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"

using namespace smiless;

namespace {

/// Hexfloat trajectory fingerprint of one executed cell: every aggregate the
/// simulator books, each end-to-end latency, and each window sample. Captured
/// from the commit *before* the observability subsystem existed, for the
/// exact config below — any drift means telemetry perturbed the simulation.
constexpr const char* kGolden = "SMIless|0x1.39079b1c9bf38p-6|0x1.8618618618618p-5|21|21|0|126|6|0|0|0|0|0x1.f9be024b9e7d6p+10|0x0p+0"
    ";0x1.9f9ceeee9389ep+1;0x1.830845a939a04p+0;0x1.747f0ff39a84p+0;0x1.6762f10012d1p+0;0x1.665113b1db8f8"
    "p+0;0x1.64187c5efb878p+0;0x1.84dac458acd5p+0;0x1.6e015aaacd85p+0;0x1.6b5793745fc2p+0;0x1.707d9d1cdd8"
    "p+0;0x1.749afc1a9ee8p+0;0x1.8390c33e4ep+0;0x1.7bac420f4304p+0;0x1.6a1b1ee1e44ep+0;0x1.871499ec11f4p+"
    "0;0x1.773a747ca988p+0;0x1.796e9f24d93ap+0;0x1.6accf98613e2p+0;0x1.6945b27fdedp+0;0x1.6d3add299608p+0"
    ";0x1.83c681a9207ap+0#0,0,0#1,6,0#0,6,0#0,6,0#1,6,0#0,6,0#0,6,0#1,6,0#0,6,0#1,6,0#0,6,0#0,6,0#1,6,0#0"
    ",6,0#0,6,0#1,6,0#0,6,0#0,6,0#1,6,0#0,6,0#0,6,0#1,6,0#0,6,0#0,6,0#0,6,0#1,6,0#0,6,0#1,6,0#0,6,0#0,6,0"
    "#1,6,0#0,6,0#1,6,0#0,6,0#0,6,0#1,6,0#0,6,0#0,6,0#1,6,0#0,6,0#0,6,0#0,6,0#1,6,0#0,6,0#0,6,0#1,6,0#0,6"
    ",0#0,6,0#0,6,0#1,6,0#0,6,0#0,6,0#0,6,0#1,6,0#0,6,0#1,6,0#0,6,0#1,6,0#0,6,0#1,6,0#0,6,0#0,6,0#0,6,0#0"
    ",6,0#0,6,0#0,6,0#0,6,0#0,6,0#0,6,0#0,6,0#0,6,0#0,6,0#0,6,0#0,3,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0"
    "#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0"
    ",0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0"
    ",0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0"
    "#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0"
    ",0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0"
    ",0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0";

exp::ExperimentConfig golden_config() {
  exp::ExperimentConfig config;
  config.app = "wl1";
  config.policy = "smiless";
  config.use_lstm = false;
  config.seed = 5;
  config.trace.kind = "regular";
  config.trace.interval = 3.0;
  config.trace.jitter = 0.2;
  config.trace.duration = 60.0;
  config.trace.seed = 5;
  config.faults.init_failure_prob = 0.05;
  config.platform.request_timeout = 45.0;
  config.platform.max_retries = 2;
  return config;
}

std::string summarize(const baselines::RunResult& r) {
  std::ostringstream os;
  os << std::hexfloat;
  os << r.policy << '|' << r.cost << '|' << r.violation_ratio << '|' << r.submitted << '|'
     << r.completed << '|' << r.failed << '|' << r.invocations << '|' << r.initializations
     << '|' << r.init_failures << '|' << r.evictions << '|' << r.retries << '|' << r.timeouts
     << '|' << r.cpu_core_seconds << '|' << r.gpu_pct_seconds;
  for (const double e : r.e2e) os << ';' << e;
  for (const auto& w : r.windows)
    os << '#' << w.arrivals << ',' << w.instances_cpu << ',' << w.instances_gpu;
  return os.str();
}

exp::CellResult run_golden(bool with_obs) {
  auto config = golden_config();
  // Any non-empty artifact path attaches a Telemetry; nothing is written
  // unless write_artifacts is called.
  if (with_obs) config.obs.audit_out = "(in-memory)";
  exp::Runner runner({/*threads=*/1, /*policy_threads=*/2});
  return exp::Runner::run_cell(config, runner.profiles(config.profile_seed),
                               runner.policy_pool());
}

}  // namespace

TEST(ObsGolden, DisabledRunIsBitIdenticalToPreSubsystemBuild) {
  const auto cell = run_golden(/*with_obs=*/false);
  EXPECT_EQ(cell.telemetry, nullptr);
  EXPECT_EQ(summarize(cell.result), kGolden);
}

TEST(ObsGolden, EnabledRunLeavesTrajectoryUntouched) {
  const auto cell = run_golden(/*with_obs=*/true);
  ASSERT_NE(cell.telemetry, nullptr);
  EXPECT_FALSE(cell.telemetry->bus().events().empty());
  EXPECT_EQ(summarize(cell.result), kGolden);
}

TEST(ObsEvents, StreamIsOrderedBySimTimeAndMatchesTheBooks) {
  const auto cell = run_golden(/*with_obs=*/true);
  const auto& events = cell.telemetry->bus().events();
  ASSERT_FALSE(events.empty());

  double last = -1.0;
  std::map<obs::EventType, int> by_type;
  for (const auto& e : events) {
    EXPECT_GE(e.t, last) << "event stream must be nondecreasing in sim time";
    last = e.t;
    ++by_type[e.type];
  }

  const auto& r = cell.result;
  EXPECT_EQ(by_type[obs::EventType::RequestSubmitted], r.submitted);
  EXPECT_EQ(by_type[obs::EventType::RequestCompleted], r.completed);
  EXPECT_EQ(by_type[obs::EventType::RequestFailed], r.failed);
  EXPECT_EQ(by_type[obs::EventType::InvocationDone], r.invocations);
  EXPECT_EQ(by_type[obs::EventType::InstanceCreated], r.initializations);
  EXPECT_EQ(by_type[obs::EventType::InstanceInitFailed], r.init_failures);
  EXPECT_EQ(by_type[obs::EventType::InstanceEvicted], r.evictions);
  EXPECT_EQ(by_type[obs::EventType::TimeoutFired], r.timeouts);
  // Every created instance eventually leaves one way or another.
  EXPECT_EQ(by_type[obs::EventType::InstanceCreated],
            by_type[obs::EventType::InstanceTerminated] +
                by_type[obs::EventType::InstanceEvicted] +
                by_type[obs::EventType::InstanceInitFailed]);
}

TEST(ObsMetrics, RegistryAgreesWithSimulatorBooks) {
  const auto cell = run_golden(/*with_obs=*/true);
  const auto& reg = cell.telemetry->registry();
  const auto& r = cell.result;

  EXPECT_EQ(reg.counter("events/request_submitted"),
            static_cast<std::uint64_t>(r.submitted));
  EXPECT_EQ(reg.counter("events/request_completed"),
            static_cast<std::uint64_t>(r.completed));
  EXPECT_EQ(reg.counter("events/invocation_done"),
            static_cast<std::uint64_t>(r.invocations));
  EXPECT_GT(reg.counter("engine/events_fired"), 0u);
  EXPECT_GE(reg.counter("engine/events_scheduled"), reg.counter("engine/events_fired"));

  const obs::Histogram* e2e = reg.histogram("e2e/WL1-AMBER-Alert");
  ASSERT_NE(e2e, nullptr);
  EXPECT_EQ(e2e->count(), static_cast<std::uint64_t>(r.e2e.size()));
  // The histogram quantile is a bucket upper bound clamped to [min, max]:
  // never below the exact nearest-rank sample value, and at most one
  // log-scale bucket (10^(1/8)) above it.
  constexpr double kBucketRatio = 1.3335214321633240;  // 10^(1/8)
  for (const double p : {50.0, 90.0, 95.0, 99.0}) {
    const double exact = math::quantile_nearest_rank(r.e2e, p);
    const double binned = e2e->quantile(p);
    EXPECT_GE(binned, exact - 1e-12) << "p" << p;
    EXPECT_LE(binned, exact * kBucketRatio + 1e-12) << "p" << p;
  }
}

TEST(ObsHistogram, QuantileContract) {
  obs::Histogram h;
  EXPECT_EQ(h.quantile(50), 0.0);  // empty
  h.add(0.5);
  // A single sample: every quantile clamps to the one observed value.
  EXPECT_DOUBLE_EQ(h.quantile(0), 0.5);
  EXPECT_DOUBLE_EQ(h.quantile(50), 0.5);
  EXPECT_DOUBLE_EQ(h.quantile(100), 0.5);
  // Values below the tracked range land in the underflow bucket and report
  // the observed minimum, not a negative bound.
  obs::Histogram tiny;
  tiny.add(1e-7);
  EXPECT_DOUBLE_EQ(tiny.quantile(50), 1e-7);
}

TEST(ObsHistogram, MergeIsAssociativeAndOrderIndependent) {
  // Deterministic pseudo-random samples spanning several decades.
  std::vector<double> values;
  std::uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 300; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    values.push_back(1e-3 * static_cast<double>(1 + x % 100000));
  }

  obs::Histogram whole;
  for (const double v : values) whole.add(v);

  obs::Histogram a, b, c;
  for (std::size_t i = 0; i < values.size(); ++i)
    (i % 3 == 0 ? a : i % 3 == 1 ? b : c).add(values[i]);

  obs::Histogram ab = a;
  ab.merge(b);
  obs::Histogram ab_c = ab;
  ab_c.merge(c);

  obs::Histogram bc = b;
  bc.merge(c);
  obs::Histogram a_bc = a;
  a_bc.merge(bc);

  // Bucket counts, extrema and every quantile are exactly associative and
  // independent of how (and in what order) the samples were sharded. The
  // running sum is floating-point addition, so it is only near-associative.
  for (const obs::Histogram* h : {&ab_c, &a_bc}) {
    EXPECT_EQ(h->count(), values.size());
    EXPECT_DOUBLE_EQ(h->min(), whole.min());
    EXPECT_DOUBLE_EQ(h->max(), whole.max());
    EXPECT_NEAR(h->sum(), whole.sum(), 1e-9 * whole.sum());
    for (const double p : {0.0, 25.0, 50.0, 90.0, 95.0, 99.0, 100.0})
      EXPECT_DOUBLE_EQ(h->quantile(p), whole.quantile(p)) << "p" << p;
    EXPECT_EQ(h->to_json()["buckets"].dump(), whole.to_json()["buckets"].dump());
  }
}

TEST(ObsAudit, DecisionLogRoundTripsAndProfilesSolver) {
  const auto cell = run_golden(/*with_obs=*/true);
  const auto& audit = cell.telemetry->audit();
  ASSERT_GE(audit.records().size(), 1u);
  EXPECT_EQ(audit.records().front().kind, "reoptimize");
  EXPECT_EQ(audit.records().front().policy, "SMIless");
  EXPECT_FALSE(audit.records().front().chosen.empty());
  // The self-profiling aggregate saw every solver call.
  EXPECT_GE(audit.solver_calls(), 1u);
  EXPECT_GT(audit.total_solver_seconds(), 0.0);

  const json::Value j = audit.to_json();
  const auto back = obs::AuditLog::from_json(json::Value::parse(j.dump()));
  EXPECT_EQ(back.to_json().dump(), j.dump());
  ASSERT_EQ(back.records().size(), audit.records().size());
  // Solver wall time is deliberately not serialized (nondeterministic).
  EXPECT_EQ(back.records().front().solver_seconds, 0.0);
}

TEST(ObsPerfetto, ExportIsValidJsonWithDisjointSpansPerTrack) {
  const auto cell = run_golden(/*with_obs=*/true);
  const json::Value trace = cell.telemetry->perfetto_json(0, "golden");
  ASSERT_TRUE(trace.is_array());
  ASSERT_FALSE(trace.items().empty());

  // Round-trips through the parser: the export is well-formed JSON.
  const json::Value parsed = json::Value::parse(trace.dump(2));
  ASSERT_EQ(parsed.items().size(), trace.items().size());

  bool seen_non_meta = false;
  std::map<std::pair<long long, long long>, std::vector<std::pair<double, double>>> spans;
  std::map<long long, int> flow_phases;  // flow id -> bitmask of s/f seen
  for (const auto& e : parsed.items()) {
    const std::string ph = e.get("ph", std::string());
    ASSERT_FALSE(ph.empty());
    if (ph == "M") {
      // Track-naming metadata is emitted before any payload event.
      EXPECT_FALSE(seen_non_meta);
      continue;
    }
    seen_non_meta = true;
    EXPECT_GE(e.get("ts", -1.0), 0.0);
    if (ph == "X") {
      EXPECT_GE(e.get("dur", -1.0), 0.0);
      spans[{e.get("pid", -1ll), e.get("tid", -1ll)}].emplace_back(e.get("ts", 0.0),
                                                                   e.get("dur", 0.0));
    } else if (ph == "s") {
      flow_phases[e.get("id", -1ll)] |= 1;
    } else if (ph == "f") {
      flow_phases[e.get("id", -1ll)] |= 2;
    }
  }

  // Per track: slices sorted by start must not overlap (instances run one
  // batch at a time; machines are down in disjoint windows).
  ASSERT_FALSE(spans.empty());
  for (auto& [track, xs] : spans) {
    std::sort(xs.begin(), xs.end());
    for (std::size_t i = 1; i < xs.size(); ++i)
      EXPECT_GE(xs[i].first + 1e-6, xs[i - 1].first + xs[i - 1].second)
          << "overlap on pid/tid " << track.first << "/" << track.second;
  }

  // Every request flow that starts also finishes.
  ASSERT_FALSE(flow_phases.empty());
  for (const auto& [id, mask] : flow_phases) EXPECT_EQ(mask, 3) << "flow id " << id;
}

TEST(ObsArtifacts, ByteStableAcrossThreadCounts) {
  exp::ExperimentGrid grid;
  grid.base = golden_config();
  grid.base.obs.trace_out = "(in-memory)";  // attach telemetry; nothing written
  grid.policies = {"smiless", "grandslam"};
  grid.seeds = {5, 6};

  exp::Runner serial({/*threads=*/1, /*policy_threads=*/2});
  exp::Runner parallel({/*threads=*/4, /*policy_threads=*/2});
  const auto a = serial.run(grid);
  const auto b = parallel.run(grid);
  ASSERT_EQ(a.size(), 4u);
  ASSERT_EQ(b.size(), 4u);

  EXPECT_EQ(exp::combined_trace(a).dump(), exp::combined_trace(b).dump());
  EXPECT_EQ(exp::combined_metrics(a).dump(), exp::combined_metrics(b).dump());
  EXPECT_EQ(exp::combined_audit(a).dump(), exp::combined_audit(b).dump());
  EXPECT_EQ(exp::windows_csv(a), exp::windows_csv(b));
  // Cells land in their own pid ranges, in input order.
  const auto combined = exp::combined_trace(a);
  long long max_pid = -1;
  for (const auto& e : combined.items()) max_pid = std::max(max_pid, e.get("pid", -1ll));
  EXPECT_GE(max_pid, 3 * 64);  // the 4th cell's range was used
}

namespace {

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// write_artifacts streams each file; it must hold exactly the bytes
/// json::save_file writes for the in-memory document (windows_csv for the
/// CSV). Returns the streamed trace and metrics files.
std::pair<std::string, std::string> expect_streamed_equals_whole(
    const std::vector<exp::CellResult>& cells, const std::string& tag) {
  const std::string dir = testing::TempDir() + "/obs_streamed_" + tag;
  std::filesystem::create_directories(dir);
  exp::ObservabilityOptions obs;
  obs.trace_out = dir + "/trace.json";
  obs.metrics_out = dir + "/metrics.json";
  obs.audit_out = dir + "/audit.json";
  obs.series_out = dir + "/series.json";
  obs.profile_out = dir + "/profile.json";
  obs.windows_out = dir + "/windows.csv";
  exp::write_artifacts(cells, obs);
  const auto expect_whole = [&](const std::string& path, const json::Value& doc) {
    json::save_file(doc, dir + "/whole.json");
    EXPECT_EQ(read_file(path), read_file(dir + "/whole.json")) << tag << ": " << path;
  };
  expect_whole(obs.trace_out, exp::combined_trace(cells));
  expect_whole(obs.metrics_out, exp::combined_metrics(cells));
  expect_whole(obs.audit_out, exp::combined_audit(cells));
  expect_whole(obs.series_out, exp::combined_series(cells));
  expect_whole(obs.profile_out, exp::combined_profile(cells));
  EXPECT_EQ(read_file(obs.windows_out), exp::windows_csv(cells)) << tag;
  return {read_file(obs.trace_out), read_file(obs.metrics_out)};
}

}  // namespace

TEST(ObsArtifacts, StreamedFilesEqualTheInMemoryDocuments) {
  // The 4-cell grid of tools/ci.sh's obs smokes, every collector on.
  exp::ExperimentGrid grid;
  grid.base.sla = 2.0;
  grid.base.use_lstm = false;
  grid.base.trace.kind = "regular";
  grid.base.trace.interval = 5.0;
  grid.base.trace.jitter = 0.1;
  grid.base.trace.duration = 60.0;
  grid.base.platform.request_timeout = 30.0;
  grid.base.platform.max_retries = 2;
  grid.base.faults.init_failure_prob = 0.05;
  grid.base.faults.straggler_prob = 0.02;
  grid.base.obs.trace_out = "(in-memory)";
  grid.base.obs.series_out = "(in-memory)";
  grid.base.obs.profile_out = "(in-memory)";
  grid.base.obs.series_cadence = 2.0;
  grid.apps = {"wl1"};
  grid.policies = {"smiless", "grandslam"};
  grid.seeds = {7, 8};
  exp::Runner runner({/*threads=*/2, /*policy_threads=*/2});
  const auto cells = runner.run(grid);
  ASSERT_EQ(cells.size(), 4u);
  expect_streamed_equals_whole(cells, "grid");

  auto gap = cells;
  gap[1].telemetry.reset();
  expect_streamed_equals_whole(gap, "middle_without_telemetry");

  auto bare = cells;
  for (auto& cell : bare) cell.telemetry.reset();
  const auto [trace, metrics] = expect_streamed_equals_whole(bare, "no_telemetry");
  EXPECT_EQ(trace, "[]\n");
  EXPECT_EQ(metrics, "{\n  \"cells\": []\n}\n");
  expect_streamed_equals_whole({}, "no_cells");

  // A cell whose telemetry has no series contributes no series row.
  exp::ExperimentConfig plain = grid.expand().front();
  plain.obs.series_out.clear();
  auto mixed = runner.run(std::vector<exp::ExperimentConfig>{plain});
  ASSERT_FALSE(mixed.front().telemetry->series_enabled());
  mixed.push_back(cells.back());
  expect_streamed_equals_whole(mixed, "cell_without_series");
}
