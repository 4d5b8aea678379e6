// Tests for the experiment subsystem (src/exp): grid expansion, config
// serialization, and — the load-bearing contract — that a parallel sweep is
// bit-identical to the serial run of the same grid, fault injection included.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/experiment.hpp"
#include "common/json.hpp"
#include "exp/aggregate.hpp"
#include "exp/config.hpp"
#include "exp/runner.hpp"
#include "fingerprint.hpp"
#include "math/stats.hpp"

using namespace smiless;

namespace {

/// A small but non-trivial grid: 2 policies x 2 seed replicates, faults on.
/// Short regular trace keeps each cell cheap while still exercising the
/// retry/timeout machinery.
exp::ExperimentGrid faulty_grid() {
  exp::ExperimentGrid grid;
  grid.base.app = "wl1";
  grid.base.sla = 2.0;
  grid.base.use_lstm = false;
  grid.base.trace.kind = "regular";
  grid.base.trace.interval = 4.0;
  grid.base.trace.jitter = 0.1;
  grid.base.trace.duration = 90.0;
  grid.base.faults.init_failure_prob = 0.05;
  grid.base.faults.straggler_prob = 0.02;
  grid.base.faults.straggler_factor = 3.0;
  grid.base.platform.request_timeout = 30.0;
  grid.base.platform.max_retries = 2;
  grid.policies = {"smiless", "grandslam"};
  grid.seeds = {7, 8};
  return grid;
}

}  // namespace

TEST(ExpGrid, CellCountAndExpansionOrder) {
  exp::ExperimentGrid grid;
  grid.apps = {"wl1", "wl2"};
  grid.policies = {"smiless", "orion", "grandslam"};
  grid.seeds = {1, 2};
  EXPECT_EQ(grid.cell_count(), 12u);
  const auto cells = grid.expand();
  ASSERT_EQ(cells.size(), 12u);
  // Fixed nesting order: app outermost, then policy, seed innermost.
  EXPECT_EQ(cells[0].app, "wl1");
  EXPECT_EQ(cells[0].policy, "smiless");
  EXPECT_EQ(cells[0].seed, 1u);
  EXPECT_EQ(cells[1].seed, 2u);
  EXPECT_EQ(cells[2].policy, "orion");
  EXPECT_EQ(cells[6].app, "wl2");
  // The seeds axis re-rolls the trace too, so replicates differ end-to-end.
  EXPECT_EQ(cells[0].trace.seed, 1u);
  EXPECT_EQ(cells[1].trace.seed, 2u);
  // Labels name every active non-seed axis and are shared by replicates.
  EXPECT_EQ(cells[0].label, "app=wl1/policy=smiless");
  EXPECT_EQ(cells[0].label, cells[1].label);
}

TEST(ExpGrid, ExpansionIsDeterministic) {
  const auto grid = faulty_grid();
  const auto a = grid.expand();
  const auto b = grid.expand();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a[i].to_json().dump(), b[i].to_json().dump());
}

TEST(ExpConfig, JsonRoundTripIsByteStable) {
  auto cells = faulty_grid().expand();
  for (const auto& c : cells) {
    const std::string once = c.to_json().dump(2);
    const auto back = exp::ExperimentConfig::from_json(json::Value::parse(once));
    EXPECT_EQ(back.to_json().dump(2), once);
  }
}

TEST(ExpConfig, InfiniteTimeoutRoundTrips) {
  exp::ExperimentConfig c;  // default request_timeout is infinite
  ASSERT_TRUE(std::isinf(c.platform.request_timeout));
  const auto back = exp::ExperimentConfig::from_json(json::Value::parse(c.to_json().dump()));
  EXPECT_TRUE(std::isinf(back.platform.request_timeout));
  EXPECT_EQ(back.to_json().dump(), c.to_json().dump());
}

TEST(ExpConfig, GroupKeyIgnoresSeedsAndLabel) {
  exp::ExperimentConfig a;
  a.label = "app=wl1";
  a.seed = 7;
  a.trace.seed = 7;
  exp::ExperimentConfig b = a;
  b.label = "";  // label and both seeds differ; identity does not
  b.seed = 8;
  b.trace.seed = 8;
  EXPECT_EQ(a.group_key(), b.group_key());
  b.sla = 4.0;
  EXPECT_NE(a.group_key(), b.group_key());
}

TEST(ExpConfig, WindowSecondsRoundTrips) {
  exp::ExperimentConfig c;
  c.platform.window_seconds = 2.5;
  const auto back = exp::ExperimentConfig::from_json(json::Value::parse(c.to_json().dump()));
  EXPECT_DOUBLE_EQ(back.platform.window_seconds, 2.5);
  EXPECT_EQ(back.to_json().dump(), c.to_json().dump());
  // The pre-rename "window" spelling is no longer accepted: an old config
  // file is rejected, naming the key, instead of running on the default.
  try {
    exp::ExperimentConfig::from_json(json::Value::parse(R"({"platform": {"window": 0.5}})"));
    FAIL() << "the legacy 'window' key must be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "json: unknown key 'window' in platform");
  }
}

TEST(ExpConfig, RejectsLanesBelowOne) {
  for (const long long lanes : {0LL, -4LL}) {
    json::Value v = exp::ExperimentConfig{}.to_json();
    v["lanes"] = lanes;
    try {
      exp::ExperimentConfig::from_json(v);
      FAIL() << "lanes = " << lanes << " must be rejected";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "lanes must be >= 1, got " + std::to_string(lanes));
    }
  }
  json::Value v = exp::ExperimentConfig{}.to_json();
  v["lanes"] = 3LL;
  EXPECT_EQ(exp::ExperimentConfig::from_json(v).lanes, 3);
}

/// Parse `doc` as an ExperimentConfig and expect a runtime_error whose
/// message contains every one of `needles`.
void expect_config_error(const std::string& doc, const std::vector<std::string>& needles) {
  try {
    exp::ExperimentConfig::from_json(json::Value::parse(doc));
    FAIL() << "config must be rejected: " << doc;
  } catch (const std::runtime_error& e) {
    for (const std::string& n : needles)
      EXPECT_NE(std::string(e.what()).find(n), std::string::npos) << e.what();
  }
}

TEST(ExpConfig, RejectsInfiniteSeed) {
  expect_config_error(R"({"seed": 1e999})", {"'seed'", "got inf"});
}

TEST(ExpConfig, RejectsLanesBeyondAnyInteger) {
  expect_config_error(R"({"lanes": 1e30})", {"'lanes'", "got 1e+30"});
}

TEST(ExpConfig, RejectsFractionalSeed) {
  expect_config_error(R"({"seed": 7.9})", {"'seed'", "got 7.9"});
  EXPECT_EQ(exp::ExperimentConfig::from_json(json::Value::parse(R"({"seed": 7.0})")).seed, 7u);
}

TEST(ExpConfig, RejectsSeedLiteralThatOverflows) {
  expect_config_error(R"({"seed": 99999999999999999999})",
                      {"json parse error", "99999999999999999999"});
}

TEST(ExpConfig, RejectsIntKnobOutsideIntRange) {
  // 2^32 + 1 would truncate to max_retries = 1.
  expect_config_error(R"({"platform": {"max_retries": 4294967297}})",
                      {"'max_retries'", "got 4294967297"});
}

TEST(ExpConfig, RejectsUnknownConfigKey) {
  expect_config_error(R"({"app": "wl1", "seeed": 1})", {"unknown key 'seeed' in config"});
}

TEST(ExpConfig, RejectsUnknownTraceKey) {
  expect_config_error(R"({"trace": {"kind": "poisson", "durration": 5}})",
                      {"unknown key 'durration' in trace"});
}

TEST(ExpConfig, RejectsUnknownPlatformKey) {
  expect_config_error(R"({"platform": {"window_secs": 2}})",
                      {"unknown key 'window_secs' in platform"});
}

TEST(ExpConfig, RejectsUnknownObservabilityKey) {
  // The key removed with the calendar-stats gate fails like any typo.
  expect_config_error(R"({"observability": {"internal_stats": true}})",
                      {"unknown key 'internal_stats' in observability"});
}

TEST(ExpConfig, RejectsUnknownFaultKey) {
  expect_config_error(R"({"faults": {"crash_rat": 0.1}})",
                      {"unknown key 'crash_rat' in faults"});
}

TEST(ExpConfig, RejectsUnknownCrashEntryKey) {
  expect_config_error(
      R"({"faults": {"crashes": [{"machine": 0, "at": 1, "duration": 2}, {"machine": 1, "when": 3}]}})",
      {"unknown key 'when' in faults.crashes[1]"});
}

TEST(ExpConfig, RejectsNonObjectSection) {
  expect_config_error(R"({"trace": 5})", {"trace must be an object"});
}

TEST(ExpConfig, WrongTypedValueNamesItsKey) {
  expect_config_error(R"({"app": "wl1", "policy": "orion", "sla": "fast"})",
                      {"'sla'", "expected a number", "got \"fast\""});
}

TEST(ExpConfig, RejectsNonPositiveWindowSeconds) {
  // Each would fail ShardedPlatform's window_seconds check mid-run.
  expect_config_error(R"({"app": "wl1", "policy": "orion", "platform": {"window_seconds": 0}})",
                      {"'window_seconds'", "got 0.0"});
  expect_config_error(R"({"platform": {"window_seconds": -1.5}})",
                      {"'window_seconds'", "got -1.5"});
  expect_config_error(R"({"platform": {"window_seconds": "inf"}})",
                      {"'window_seconds'", "got inf"});
}

TEST(ExpConfig, RejectsNonPositiveRegularInterval) {
  expect_config_error(
      R"({"app": "wl1", "policy": "orion", "trace": {"kind": "regular", "interval": -1, "duration": 60}})",
      {"'interval'", "got -1.0"});
  expect_config_error(R"({"trace": {"kind": "regular", "interval": 0}})",
                      {"'interval'", "got 0.0"});
  // Only a regular trace reads the interval.
  EXPECT_NO_THROW(exp::ExperimentConfig::from_json(
      json::Value::parse(R"({"trace": {"kind": "preset", "interval": -1}})")));
}

TEST(ExpConfig, RejectsNegativeRegularJitter) {
  expect_config_error(R"({"trace": {"kind": "regular", "jitter": -0.1}})",
                      {"'jitter'", "got -0.1"});
}

TEST(ExpConfig, RejectsRegularDurationNotAboveInterval) {
  expect_config_error(R"({"trace": {"kind": "regular", "interval": 5, "duration": 5}})",
                      {"'duration'", "interval (5.0)", "got 5.0"});
  expect_config_error(R"({"trace": {"kind": "regular", "duration": "inf"}})",
                      {"'duration'", "got inf"});
}

TEST(ExpConfig, RejectsFaultProbabilityAboveOne) {
  expect_config_error(R"({"faults": {"init_failure_prob": 1.5}})",
                      {"'init_failure_prob'", "got 1.5"});
}

// Each knob below used to reach a bare SMILESS_CHECK mid-run whose message
// named no key.

TEST(ExpConfig, RejectsNonPositiveRetryDelay) {
  expect_config_error(R"({"platform": {"retry_delay": 0}})", {"'retry_delay'", "got 0.0"});
}

TEST(ExpConfig, RejectsRetryBackoffBelowOne) {
  expect_config_error(R"({"platform": {"retry_backoff": 0.5}})",
                      {"'retry_backoff'", ">= 1", "got 0.5"});
}

TEST(ExpConfig, RejectsRetryMaxDelayBelowRetryDelay) {
  expect_config_error(R"({"platform": {"retry_delay": 2, "retry_max_delay": 1}})",
                      {"'retry_max_delay'", "retry_delay (2.0)", "got 1.0"});
}

TEST(ExpConfig, RejectsNegativeInferenceNoise) {
  expect_config_error(R"({"platform": {"inference_noise": -1}})",
                      {"'inference_noise'", "got -1.0"});
}

TEST(ExpConfig, RejectsNonPositiveRequestTimeout) {
  expect_config_error(R"({"platform": {"request_timeout": 0}})",
                      {"'request_timeout'", "got 0.0"});
}

TEST(ExpConfig, RejectsBurstPeakBelowQuietRate) {
  expect_config_error(R"({"trace": {"kind": "burst", "quiet_rate": 2, "peak_rate": 1}})",
                      {"'peak_rate'", "quiet_rate (2.0)", "got 1.0"});
  // Only a burst trace reads the rates.
  EXPECT_NO_THROW(exp::ExperimentConfig::from_json(
      json::Value::parse(R"({"trace": {"kind": "preset", "peak_rate": -1}})")));
}

TEST(ExpConfig, RejectsNonFiniteGeneratedDuration) {
  // An infinite preset duration generated an empty trace and exited 0.
  expect_config_error(R"({"trace": {"kind": "preset", "duration": "inf"}})",
                      {"'duration'", "got inf"});
  expect_config_error(R"({"trace": {"kind": "burst", "duration": 0}})",
                      {"'duration'", "got 0.0"});
}

TEST(ExpConfig, RejectsNonPositiveSla) {
  expect_config_error(R"({"sla": 0})", {"'sla'", "got 0.0"});
  expect_config_error(R"({"sla": -1})", {"'sla'", "got -1.0"});
}

TEST(ExpConfig, RejectsNonFiniteDrainSlack) {
  expect_config_error(R"({"drain_slack": "-inf"})", {"'drain_slack'", "got -inf"});
}

/// Run `fn` and expect an exception whose message contains every one of
/// `needles`.
template <class Fn>
void expect_error(Fn&& fn, const std::vector<std::string>& needles) {
  try {
    fn();
    FAIL() << "expected an error naming " << needles.front();
  } catch (const std::exception& e) {
    for (const std::string& n : needles)
      EXPECT_NE(std::string(e.what()).find(n), std::string::npos) << e.what();
  }
}

TEST(ExpTrace, GridDurationNotAboveRegularIntervalIsRejected) {
  // The base trace passes its reader; the durations axis then sets a
  // duration below the interval.
  const auto grid = exp::ExperimentGrid::from_json(json::Value::parse(
      R"({"base": {"app": "wl1", "trace": {"kind": "regular", "interval": 5}},
          "axes": {"durations": [3]}})"));
  const auto cells = grid.expand();
  ASSERT_EQ(cells.size(), 1u);
  const apps::App app = exp::resolve_app(cells[0]);
  expect_error([&] { exp::build_trace(cells[0], app); },
               {"'duration'", "interval (5.0)", "got 3.0"});
}

TEST(ExpTrace, OverriddenInfinitePresetDurationIsRejected) {
  // What `--duration inf` does to the default preset trace.
  exp::ExperimentConfig config;
  config.app = "wl1";
  config.trace.duration = std::numeric_limits<double>::infinity();
  const apps::App app = exp::resolve_app(config);
  expect_error([&] { exp::build_trace(config, app); }, {"'duration'", "got inf"});
}

TEST(ExpTrace, OverriddenDurationNotAboveRegularIntervalIsRejected) {
  // What `--duration 3` does to a --config whose regular trace was valid.
  auto config = exp::ExperimentConfig::from_json(
      json::Value::parse(R"({"app": "wl1", "trace": {"kind": "regular", "interval": 5}})"));
  config.trace.duration = 3.0;
  const apps::App app = exp::resolve_app(config);
  expect_error([&] { exp::build_trace(config, app); },
               {"'duration'", "interval (5.0)", "got 3.0"});
}

TEST(ExpTrace, PresetDurationAboveTheCeilingIsRejected) {
  // What `--duration 1e300` does to the default preset trace.
  exp::ExperimentConfig config;
  config.app = "wl1";
  config.trace.duration = 1e300;
  const apps::App app = exp::resolve_app(config);
  expect_error([&] { exp::build_trace(config, app); },
               {"'duration'", "<= 1000000.0", "got 1e+300"});
}

TEST(ExpTrace, RegularDurationAboveTheCeilingIsRejected) {
  auto config = exp::ExperimentConfig::from_json(
      json::Value::parse(R"({"app": "wl1", "trace": {"kind": "regular", "interval": 5}})"));
  config.trace.duration = 2e6;
  const apps::App app = exp::resolve_app(config);
  expect_error([&] { exp::build_trace(config, app); },
               {"'duration'", "<= 1000000.0", "got 2000000.0"});
}

TEST(ExpTrace, BurstDurationAboveTheCeilingIsRejected) {
  // A grid's durations axis, past the burst trace's reader.
  const auto grid = exp::ExperimentGrid::from_json(json::Value::parse(
      R"({"base": {"app": "wl1", "trace": {"kind": "burst"}},
          "axes": {"durations": [2e6]}})"));
  const auto cells = grid.expand();
  ASSERT_EQ(cells.size(), 1u);
  const apps::App app = exp::resolve_app(cells[0]);
  expect_error([&] { exp::build_trace(cells[0], app); },
               {"'duration'", "<= 1000000.0", "got 2000000.0"});
}

TEST(ExpConfig, ObservabilityRoundTripsAndStaysOutOfGroupKey) {
  exp::ExperimentConfig a;
  exp::ExperimentConfig b = a;
  b.obs.trace_out = "trace.json";
  b.obs.metrics_out = "metrics.json";
  b.obs.audit_out = "audit.json";
  b.obs.windows_out = "windows.csv";
  EXPECT_FALSE(a.obs.any());
  EXPECT_TRUE(b.obs.collect() && b.obs.any());
  const auto back = exp::ExperimentConfig::from_json(json::Value::parse(b.to_json().dump()));
  EXPECT_EQ(back.obs.trace_out, "trace.json");
  EXPECT_EQ(back.obs.windows_out, "windows.csv");
  EXPECT_EQ(back.to_json().dump(), b.to_json().dump());
  // Where artifacts go must never split aggregation groups.
  EXPECT_EQ(a.group_key(), b.group_key());
}

TEST(ExpGrid, GridFileRoundTrips) {
  const auto grid = faulty_grid();
  const std::string path = testing::TempDir() + "/exp_grid_roundtrip.json";
  grid.save(path);
  const auto back = exp::ExperimentGrid::load(path);
  EXPECT_EQ(back.to_json().dump(2), grid.to_json().dump(2));
  // The reloaded grid expands to the same cells, byte for byte.
  const auto a = grid.expand();
  const auto b = back.expand();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a[i].to_json().dump(), b[i].to_json().dump());
  std::remove(path.c_str());
}

TEST(ExpGrid, RejectsLanesBelowOne) {
  const auto expect_rejected = [](const std::string& doc) {
    try {
      exp::ExperimentGrid::from_json(json::Value::parse(doc));
      FAIL() << "grid must be rejected: " << doc;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("lanes must be >= 1"), std::string::npos)
          << e.what();
    }
  };
  expect_rejected(R"({"axes": {"lanes": [1, 0]}})");
  expect_rejected(R"({"axes": {"lanes": [-4]}})");
  expect_rejected(R"({"base": {"lanes": 0}})");
  EXPECT_EQ(exp::ExperimentGrid::from_json(json::Value::parse(R"({"axes": {"lanes": [1, 4]}})"))
                .lanes,
            (std::vector<int>{1, 4}));
}

/// Parse `doc` as an ExperimentGrid and expect a runtime_error containing
/// `needle`.
void expect_grid_error(const std::string& doc, const std::string& needle) {
  try {
    exp::ExperimentGrid::from_json(json::Value::parse(doc));
    FAIL() << "grid must be rejected: " << doc;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
  }
}

TEST(ExpGrid, RejectsUnknownGridKey) {
  expect_grid_error(R"({"bas": {"app": "wl2"}})", "unknown key 'bas' in grid");
  expect_grid_error(R"({"base": {"polcy": "orion"}})", "unknown key 'polcy' in config");
}

TEST(ExpGrid, RejectsUnknownAxis) {
  expect_grid_error(R"({"axes": {"apps": ["wl1"], "seed": [1, 2]}})",
                    "unknown key 'seed' in axes");
}

TEST(ExpGrid, RejectsNonPositiveSlaAxisValue) {
  expect_grid_error(R"({"axes": {"slas": [2.0, -1]}})", "'slas' must be > 0, got -1.0");
}

TEST(ExpGrid, WrongTypedAxisNamesItsKey) {
  expect_grid_error(R"({"base": {"app": "wl1"}, "axes": {"seeds": 5}})", "'seeds'");
  expect_grid_error(R"({"axes": {"slas": [2.0, "fast"]}})", "'slas'");
}

TEST(ExpRunner, RunCellMatchesDirectExperiment) {
  exp::ExperimentConfig config;
  config.app = "wl1";
  config.policy = "grandslam";
  config.use_lstm = false;
  config.trace.kind = "regular";
  config.trace.interval = 5.0;
  config.trace.duration = 60.0;

  exp::Runner runner({/*threads=*/1, /*policy_threads=*/2});
  const auto& store = runner.profiles(config.profile_seed);
  const auto cell = exp::Runner::run_cell(config, store, runner.policy_pool());

  // The hand-rolled equivalent of what run_cell does.
  const apps::App app = exp::resolve_app(config);
  const workload::Trace trace = exp::build_trace(config, app);
  baselines::PolicySettings settings;
  settings.use_lstm = false;
  settings.pool = runner.policy_pool();
  settings.oracle_trace = &trace;
  const auto kind = baselines::parse_policy_kind(config.policy);
  ASSERT_TRUE(kind.has_value());
  baselines::ExperimentOptions options;
  options.seed = config.seed;
  options.drain_slack = config.drain_slack;
  options.platform = config.platform;
  options.faults = config.faults;
  const auto direct = baselines::run_experiment(
      app, trace, baselines::make_policy(*kind, app, store, settings), options);

  EXPECT_EQ(cell.result.cost, direct.cost);
  EXPECT_EQ(cell.result.submitted, direct.submitted);
  EXPECT_EQ(cell.result.completed, direct.completed);
  EXPECT_EQ(cell.result.initializations, direct.initializations);
  EXPECT_EQ(cell.result.e2e, direct.e2e);
}

/// A cheap cell whose fault knobs a test then sets out of range, as a CLI
/// flag or a grid axis does after the config was read.
exp::ExperimentConfig small_cell() {
  exp::ExperimentConfig config;
  config.app = "wl1";
  config.policy = "orion";
  config.use_lstm = false;
  config.trace.kind = "regular";
  config.trace.interval = 5.0;
  config.trace.duration = 60.0;
  return config;
}

/// exp::execute_cell, the step every run path (single run, sweep, serve)
/// reaches once the CLI flags and the grid's axes are applied.
void execute(const exp::ExperimentConfig& config) {
  exp::Runner runner({/*threads=*/1, /*policy_threads=*/1});
  exp::execute_cell(config, runner.profiles(config.profile_seed), runner.policy_pool(),
                    /*lane_threads=*/1, nullptr, nullptr, nullptr);
}

TEST(ExpRunner, ExecuteCellRejectsInitFailureProbFromGridAxis) {
  exp::ExperimentGrid grid;
  grid.base = small_cell();
  grid.init_failure_probs = {1.5};
  const auto cells = grid.expand();
  ASSERT_EQ(cells.size(), 1u);
  expect_error([&] { execute(cells[0]); }, {"'init_failure_prob'", "got 1.5"});
}

TEST(ExpRunner, ExecuteCellRejectsInitFailureProbAboveOne) {
  auto config = small_cell();
  config.faults.init_failure_prob = 1.5;  // --fault-init-p 1.5
  expect_error([&] { execute(config); }, {"'init_failure_prob'", "got 1.5"});
}

TEST(ExpRunner, ExecuteCellRejectsStragglerFactorBelowOne) {
  auto config = small_cell();
  config.faults.straggler_factor = 0.5;  // --fault-straggler-x 0.5
  expect_error([&] { execute(config); }, {"'straggler_factor'", "got 0.5"});
}

TEST(ExpRunner, ExecuteCellRejectsZeroMttr) {
  auto config = small_cell();
  config.faults.mttr = 0.0;  // --fault-mttr 0 --fault-crash-rate 0.01
  config.faults.crash_rate = 0.01;
  expect_error([&] { execute(config); }, {"'mttr'", "got 0.0"});
}

TEST(ExpRunner, ExecuteCellRejectsDrainSlackBelowMinusTheHorizon) {
  auto config = small_cell();
  config.drain_slack = -100.0;  // the regular trace spans 60 s
  expect_error([&] { execute(config); }, {"'drain_slack'", "> -60.0", "got -100.0"});
}

TEST(ExpRunner, ExecuteCellRejectsSlaFromGridAxis) {
  exp::ExperimentGrid grid;
  grid.base = small_cell();
  grid.slas = {-1.0};
  const auto cells = grid.expand();
  ASSERT_EQ(cells.size(), 1u);
  expect_error([&] { execute(cells[0]); }, {"'sla'", "got -1.0"});
}

TEST(ExpRunner, ExecuteCellRejectsRetryBackoffBelowOne) {
  auto config = small_cell();
  config.platform.retry_backoff = 0.5;
  expect_error([&] { execute(config); }, {"'retry_backoff'", "got 0.5"});
}

TEST(ExpRunner, ExecuteCellRejectsBurstPeakBelowQuietRate) {
  auto config = small_cell();
  config.trace.kind = "burst";
  config.trace.peak_rate = 0.1;  // below the default quiet rate 0.5
  expect_error([&] { execute(config); }, {"'peak_rate'", "got 0.1"});
}

TEST(ExpRunner, ExecuteCellRejectsCrashOutsideTheFleet) {
  auto config = small_cell();
  config.faults.crashes.push_back({/*machine=*/99, /*at=*/5.0, /*duration=*/30.0});
  expect_error([&] { execute(config); }, {"machine 99", "fleet of 8 machines"});
}

TEST(ExpRunner, LstmCellFingerprintIsPinned) {
  // The one pinned cell with the LSTM predictors on (every other golden runs
  // use_lstm false): wl2 under SMIless over a 900 s preset trace, seed 7, as
  // `smiless --app wl2 --policy smiless --duration 900 --seed 7` runs it and
  // tools/ci.sh golden checks through the CLI. The predictors train at
  // window 240 and then serve every window, so any drift in an LSTM number
  // moves this trajectory.
  exp::ExperimentConfig config;
  config.app = "wl2";
  config.policy = "smiless";
  config.use_lstm = true;
  config.trace.duration = 900.0;
  config.seed = 7;
  config.trace.seed = 7;
  exp::Runner runner({/*threads=*/1, /*policy_threads=*/1});
  const auto cell =
      exp::Runner::run_cell(config, runner.profiles(config.profile_seed), runner.policy_pool());
  const std::string fp = fingerprint(cell.result);
  EXPECT_EQ(cell.result.submitted, 465);
  EXPECT_EQ(fp.substr(0, fp.find(';')),
            "SMIless|0x1.15195dba907b2p-1|0x1.6058160581606p-7|465|465|0|2325|185|0|0|0|0|"
            "0x1.bfb0ff4514fcbp+15|0x0p+0");
  EXPECT_EQ(fnv1a(fp), 0xa4c9be7b676a2dc8ULL) << "hash 0x" << std::hex << fnv1a(fp);
}

TEST(ExpRunner, RecordedTracesAreTheRunsOwnRequests) {
  // Under faults the slowest recorded trace is the run's slowest request:
  // traces come from the summarized run itself, and recording them never
  // moves its trajectory.
  exp::ExperimentConfig config;
  config.app = "wl1";
  config.policy = "orion";
  config.use_lstm = false;
  config.seed = 7;
  config.trace.seed = 7;
  config.trace.duration = 120.0;
  config.faults.init_failure_prob = 0.3;
  config.faults.straggler_prob = 0.2;

  exp::Runner runner({/*threads=*/1, /*policy_threads=*/2});
  const auto& store = runner.profiles(config.profile_seed);
  const auto plain = exp::Runner::run_cell(config, store, runner.policy_pool());
  config.platform.record_traces = true;
  const auto traced = exp::Runner::run_cell(config, store, runner.policy_pool());

  EXPECT_TRUE(plain.result.traces.empty());
  EXPECT_EQ(traced.result.e2e, plain.result.e2e);
  EXPECT_EQ(traced.result.cost, plain.result.cost);
  const auto& r = traced.result;
  ASSERT_FALSE(r.e2e.empty());
  ASSERT_EQ(r.traces.size(), r.e2e.size());
  const auto slowest = std::max_element(
      r.traces.begin(), r.traces.end(),
      [](const auto& a, const auto& b) { return a.e2e() < b.e2e(); });
  EXPECT_EQ(slowest->e2e(), *std::max_element(r.e2e.begin(), r.e2e.end()));
}

TEST(ExpRunner, ParallelSweepBitIdenticalToSerial) {
  const auto grid = faulty_grid();

  exp::Runner serial({/*threads=*/1, /*policy_threads=*/2});
  exp::Runner parallel({/*threads=*/4, /*policy_threads=*/2});
  const auto serial_cells = serial.run(grid);
  const auto parallel_cells = parallel.run(grid);
  ASSERT_EQ(serial_cells.size(), grid.cell_count());
  ASSERT_EQ(parallel_cells.size(), serial_cells.size());

  // Fault knobs actually engaged: some cell saw a retry or an init failure.
  long retries = 0, init_failures = 0;
  for (const auto& cell : serial_cells) {
    retries += cell.result.retries;
    init_failures += cell.result.init_failures;
  }
  EXPECT_GT(retries + init_failures, 0) << "grid too tame to exercise fault paths";

  // The whole emitted document — aggregates and per-cell rows — is
  // bit-identical, which subsumes every per-field comparison.
  const std::string a =
      exp::summary_json(serial_cells, exp::aggregate(serial_cells)).dump(2);
  const std::string b =
      exp::summary_json(parallel_cells, exp::aggregate(parallel_cells)).dump(2);
  EXPECT_EQ(a, b);

  // Sanity on the aggregation itself: 2 policy groups x 2 seed replicates.
  const auto aggregates = exp::aggregate(serial_cells);
  ASSERT_EQ(aggregates.size(), 2u);
  for (const auto& agg : aggregates) {
    EXPECT_EQ(agg.replicates, 2);
    EXPECT_GT(agg.submitted, 0);
  }
}

TEST(ExpAggregate, MeanAndConfidenceInterval) {
  // Two replicates with known costs: mean and 1.96*s/sqrt(n) check out.
  exp::ExperimentConfig base;
  base.policy = "smiless";
  std::vector<exp::CellResult> cells(2);
  for (int i = 0; i < 2; ++i) {
    cells[i].config = base;
    cells[i].config.seed = static_cast<std::uint64_t>(i + 1);
    cells[i].config.trace.seed = cells[i].config.seed;
    cells[i].result.policy = "SMIless";
    cells[i].result.app = "wl1";
    cells[i].result.cost = i == 0 ? 1.0 : 3.0;
    cells[i].result.submitted = 10;
    cells[i].result.completed = 10;
    cells[i].result.e2e = {0.5, 1.0};
  }
  const auto aggregates = exp::aggregate(cells);
  ASSERT_EQ(aggregates.size(), 1u);
  const auto& a = aggregates[0];
  EXPECT_EQ(a.replicates, 2);
  EXPECT_DOUBLE_EQ(a.cost.mean, 2.0);
  EXPECT_DOUBLE_EQ(a.cost_total, 4.0);
  const std::vector<double> costs = {1.0, 3.0};
  EXPECT_DOUBLE_EQ(a.cost.ci95, 1.96 * math::stddev(costs) / std::sqrt(2.0));
  EXPECT_EQ(a.submitted, 20);
  // e2e percentiles pool all four samples.
  const std::vector<double> pooled = {0.5, 1.0, 0.5, 1.0};
  EXPECT_DOUBLE_EQ(a.e2e_p50, math::percentile(pooled, 50));
}

TEST(ExpAggregate, CsvEmitterShape) {
  exp::ExperimentConfig base;
  std::vector<exp::CellResult> cells(1);
  cells[0].config = base;
  cells[0].result.policy = "SMIless";
  cells[0].result.app = "wl1";
  cells[0].result.cost = 0.25;
  const auto aggregates = exp::aggregate(cells);
  const std::string csv = exp::summary_csv(aggregates);
  EXPECT_NE(csv.find("label,policy,app,sla"), std::string::npos);
  EXPECT_NE(csv.find("\"SMIless\""), std::string::npos);
  // Header + one row, both newline-terminated.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 2);
}

TEST(ExpRunner, WallClockExcludedFromEmitters) {
  exp::ExperimentConfig base;
  std::vector<exp::CellResult> cells(1);
  cells[0].config = base;
  cells[0].result.policy = "SMIless";
  cells[0].result.app = "wl1";
  cells[0].wall_seconds = 1.25;
  auto copy = cells;
  copy[0].wall_seconds = 99.0;  // wall time must never leak into output
  const auto a = exp::summary_json(cells, exp::aggregate(cells)).dump(2);
  const auto b = exp::summary_json(copy, exp::aggregate(copy)).dump(2);
  EXPECT_EQ(a, b);
}
