// Windowed time-series telemetry suite (DESIGN.md §15).
//
// Contracts under test:
//  - bin semantics: right-inclusive fixed-cadence bins on sim time, gauges
//    snapshotted at close, time-weighted utilization split at boundaries;
//  - the exported series is byte-identical across lane counts and lane
//    thread counts (the merge_lanes republish keeps it merge-associative);
//  - the series cadence and artifact paths round-trip through the
//    ExperimentConfig JSON;
//  - the HTML serving report is structurally sound: standalone document,
//    embedded JSON island that parses back, no network fetches.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "exp/config.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "obs/telemetry.hpp"
#include "obs/timeseries.hpp"

using namespace smiless;

namespace {

obs::Event ev(obs::EventType type, double t) {
  obs::Event e;
  e.type = type;
  e.t = t;
  e.app = 0;
  e.node = 0;
  e.request = 0;
  return e;
}

TEST(TimeSeries, BinsAreRightInclusiveOnTheCadenceGrid) {
  obs::TimeSeries s;
  s.enable(1.0);
  // An arrival at exactly t = 1.0 belongs to bin 1 ((0, 1]), not bin 2.
  s.on_event(ev(obs::EventType::RequestSubmitted, 1.0));
  auto e2 = ev(obs::EventType::RequestSubmitted, 1.5);
  e2.request = 1;
  s.on_event(e2);
  s.finalize(2.0);

  json::Value doc = s.to_json({});
  ASSERT_EQ(doc.get("bins", 0LL), 2LL);
  const auto& arrivals = doc["arrivals"].items();
  EXPECT_EQ(arrivals[0].as_double(), 1.0);
  EXPECT_EQ(arrivals[1].as_double(), 1.0);
}

TEST(TimeSeries, SloAttainmentUsesTheRegisteredSla) {
  obs::TimeSeries s;
  s.enable(10.0);
  s.set_app_sla(0, 2.0);
  s.on_event(ev(obs::EventType::RequestSubmitted, 0.5));
  auto done = ev(obs::EventType::RequestCompleted, 1.5);
  done.t2 = 0.5;  // e2e = 1.0 <= SLA
  s.on_event(done);

  auto late_sub = ev(obs::EventType::RequestSubmitted, 2.0);
  late_sub.request = 1;
  s.on_event(late_sub);
  auto late = ev(obs::EventType::RequestCompleted, 7.0);
  late.request = 1;
  late.t2 = 2.0;  // e2e = 5.0 > SLA
  s.on_event(late);
  s.finalize(10.0);

  json::Value doc = s.to_json({});
  ASSERT_EQ(doc.get("bins", 0LL), 1LL);
  EXPECT_DOUBLE_EQ(doc["slo_attainment"].items()[0].as_double(), 0.5);
  EXPECT_EQ(doc["completions"].items()[0].as_double(), 2.0);
}

exp::ExperimentConfig series_cell(int lanes) {
  exp::ExperimentConfig c;
  c.app = "wl1";
  c.policy = "orion";
  c.seed = 42;
  c.trace.seed = 42;
  c.trace.duration = 90.0;
  c.lanes = lanes;
  c.obs.series_out = "unused.json";  // enables the series; nothing written
  c.obs.series_cadence = 2.0;
  return c;
}

exp::Runner& runner() {
  static exp::Runner r(exp::RunnerOptions{});
  return r;
}

/// The acceptance bar: the exported series must be byte-identical across
/// lane counts K in {1, 2, 4, 8} and lane thread counts — the merge_lanes
/// republish makes per-lane collection associative.
TEST(TimeSeries, SeriesIsByteIdenticalAcrossLanesAndLaneThreads) {
  const auto& store = runner().profiles(2024);
  const exp::CellResult base =
      exp::Runner::run_cell(series_cell(1), store, runner().policy_pool());
  ASSERT_NE(base.telemetry, nullptr);
  ASSERT_TRUE(base.telemetry->series_enabled());
  const std::string golden = base.telemetry->series_json().dump();
  EXPECT_FALSE(golden.empty());

  for (const int k : {2, 4, 8}) {
    for (const int lane_threads : {1, 2, 4}) {
      SCOPED_TRACE("lanes=" + std::to_string(k) +
                   " lane_threads=" + std::to_string(lane_threads));
      const exp::CellResult sharded =
          exp::Runner::run_cell(series_cell(k), store, runner().policy_pool(), lane_threads);
      ASSERT_NE(sharded.telemetry, nullptr);
      EXPECT_EQ(golden, sharded.telemetry->series_json().dump());
    }
  }
}

TEST(TimeSeries, CadenceRoundTripsThroughExperimentConfigJson) {
  exp::ExperimentConfig c;
  c.obs.series_out = "series.json";
  c.obs.report_out = "report.html";
  c.obs.profile_out = "profile.json";
  c.obs.series_cadence = 7.5;

  const exp::ExperimentConfig back = exp::ExperimentConfig::from_json(c.to_json());
  EXPECT_EQ(back.obs.series_out, "series.json");
  EXPECT_EQ(back.obs.report_out, "report.html");
  EXPECT_EQ(back.obs.profile_out, "profile.json");
  EXPECT_EQ(back.obs.series_cadence, 7.5);
  EXPECT_TRUE(back.obs.collect());
  EXPECT_TRUE(back.obs.profile());

  // Defaults must survive a config written before these fields existed.
  const exp::ExperimentConfig blank =
      exp::ExperimentConfig::from_json(exp::ExperimentConfig{}.to_json());
  EXPECT_EQ(blank.obs.series_cadence, 1.0);
  EXPECT_FALSE(blank.obs.profile());

  // The new knobs never split aggregation groups: obs is excluded wholesale.
  exp::ExperimentConfig other = c;
  other.obs.series_cadence = 0.25;
  other.obs.report_out = "elsewhere.html";
  EXPECT_EQ(c.group_key(), other.group_key());
}

/// Structural golden for the HTML report: shape, not bytes (the profiler
/// section is wall-clock data).
TEST(TimeSeries, HtmlReportIsSelfContainedAndParsesBack) {
  const auto& store = runner().profiles(2024);
  auto config = series_cell(1);
  config.obs.report_out = "unused.html";  // turns the profiler on too
  const exp::CellResult cell =
      exp::Runner::run_cell(config, store, runner().policy_pool());
  ASSERT_NE(cell.profile, nullptr);

  const json::Value payload = exp::report_payload({cell}, "test report");
  const std::string html = exp::render_report(payload);

  EXPECT_EQ(html.rfind("<!doctype html>", 0), 0u);
  EXPECT_NE(html.find("<script type=\"application/json\" id=\"data\">"), std::string::npos);
  EXPECT_NE(html.find("</body>"), std::string::npos);

  // Self-contained: no external fetches. The SVG namespace URI is an
  // identifier, not a request, and is the only http occurrence allowed.
  std::string stripped = html;
  for (std::string::size_type pos;
       (pos = stripped.find("http://www.w3.org/2000/svg")) != std::string::npos;)
    stripped.erase(pos, std::strlen("http://www.w3.org/2000/svg"));
  EXPECT_EQ(stripped.find("http://"), std::string::npos);
  EXPECT_EQ(stripped.find("https://"), std::string::npos);
  EXPECT_EQ(stripped.find("<link"), std::string::npos);
  EXPECT_EQ(stripped.find("src="), std::string::npos);

  // The data island must parse back to the payload (modulo the </ escape).
  const std::string open = "<script type=\"application/json\" id=\"data\">";
  const auto a = html.find(open) + open.size();
  const auto b = html.find("</script>", a);
  ASSERT_NE(b, std::string::npos);
  std::string island = html.substr(a, b - a);
  for (std::string::size_type pos; (pos = island.find("<\\/")) != std::string::npos;)
    island.replace(pos, 3, "</");
  json::Value parsed = json::Value::parse(island);
  ASSERT_TRUE(parsed.is_object());
  EXPECT_EQ(parsed.get("title", ""), "test report");
  const auto& cells = parsed["cells"].items();
  ASSERT_EQ(cells.size(), 1u);
  const json::Value* series = cells[0].find("series");
  const json::Value* profile = cells[0].find("profile");
  ASSERT_NE(series, nullptr);
  ASSERT_NE(profile, nullptr);
  EXPECT_TRUE(series->is_object());
  EXPECT_TRUE(profile->is_object());
  EXPECT_GE(profile->get("coverage", 0.0), 0.9);
  EXPECT_EQ(series->get("cadence", 0.0), 2.0);
}

}  // namespace
