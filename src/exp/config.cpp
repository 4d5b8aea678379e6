#include "exp/config.hpp"

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "apps/catalog.hpp"
#include "apps/serialize.hpp"
#include "common/table.hpp"
#include "faults/fault_io.hpp"
#include "serverless/options_io.hpp"
#include "workload/trace.hpp"
#include "workload/trace_io.hpp"

namespace smiless::exp {

namespace {

/// A lane count read from config input: an integer >= 1.
int lane_count(long long v) {
  if (v < 1 || v > std::numeric_limits<int>::max())
    throw std::runtime_error("lanes must be >= 1, got " + std::to_string(v));
  return static_cast<int>(v);
}

/// The trace generators' preconditions. Checked where a config is read and
/// again where the trace is built, after every override (a grid's
/// `durations` axis, the CLI's --duration), so a bad trace exits with this
/// message instead of aborting, or silently generating nothing, mid-run.
void check_trace(const TraceSpec& t) {
  if (t.kind == "csv") return;
  const std::string max_duration = json::Value::format_double(workload::kMaxTraceDuration);
  if (t.kind == "regular") {
    if (!(t.interval > 0.0)) json::reject("interval", "> 0 for a regular trace", t.interval);
    if (!(t.jitter >= 0.0)) json::reject("jitter", ">= 0 for a regular trace", t.jitter);
    if (!(t.duration > t.interval && t.duration <= workload::kMaxTraceDuration))
      json::reject("duration",
                   "> interval (" + json::Value::format_double(t.interval) + ") and <= " +
                       max_duration + " for a regular trace",
                   t.duration);
    return;
  }
  if (!(t.duration > 0.0 && t.duration <= workload::kMaxTraceDuration))
    json::reject("duration", "> 0 and <= " + max_duration + " for a generated trace",
                 t.duration);
  if (t.kind == "burst") {
    if (!(t.quiet_rate >= 0.0)) json::reject("quiet_rate", ">= 0 for a burst trace", t.quiet_rate);
    if (!(t.peak_rate >= t.quiet_rate))
      json::reject("peak_rate",
                   ">= quiet_rate (" + json::Value::format_double(t.quiet_rate) +
                       ") for a burst trace",
                   t.peak_rate);
  }
}

}  // namespace

json::Value TraceSpec::to_json() const {
  json::Value v = json::Value::object();
  v["kind"] = kind;
  v["duration"] = duration;
  v["seed"] = static_cast<long long>(seed);
  v["interval"] = interval;
  v["jitter"] = jitter;
  v["quiet_rate"] = quiet_rate;
  v["peak_rate"] = peak_rate;
  v["file"] = file;
  return v;
}

TraceSpec TraceSpec::from_json(const json::Value& v) {
  json::expect_keys(v, "trace",
                    {"kind", "duration", "seed", "interval", "jitter", "quiet_rate", "peak_rate",
                     "file"});
  TraceSpec t;
  t.kind = v.get("kind", t.kind);
  t.duration = v.get("duration", t.duration);
  t.seed = static_cast<std::uint64_t>(v.get("seed", static_cast<long long>(t.seed)));
  t.interval = v.get("interval", t.interval);
  t.jitter = v.get("jitter", t.jitter);
  t.quiet_rate = v.get("quiet_rate", t.quiet_rate);
  t.peak_rate = v.get("peak_rate", t.peak_rate);
  t.file = v.get("file", t.file);
  check_trace(t);
  return t;
}

json::Value ObservabilityOptions::to_json() const {
  json::Value v = json::Value::object();
  v["trace_out"] = trace_out;
  v["metrics_out"] = metrics_out;
  v["audit_out"] = audit_out;
  v["windows_out"] = windows_out;
  v["series_out"] = series_out;
  v["report_out"] = report_out;
  v["profile_out"] = profile_out;
  v["series_cadence"] = series_cadence;
  return v;
}

ObservabilityOptions ObservabilityOptions::from_json(const json::Value& v) {
  json::expect_keys(v, "observability",
                    {"trace_out", "metrics_out", "audit_out", "windows_out", "series_out",
                     "report_out", "profile_out", "series_cadence"});
  ObservabilityOptions o;
  o.trace_out = v.get("trace_out", o.trace_out);
  o.metrics_out = v.get("metrics_out", o.metrics_out);
  o.audit_out = v.get("audit_out", o.audit_out);
  o.windows_out = v.get("windows_out", o.windows_out);
  o.series_out = v.get("series_out", o.series_out);
  o.report_out = v.get("report_out", o.report_out);
  o.profile_out = v.get("profile_out", o.profile_out);
  o.series_cadence = v.get("series_cadence", o.series_cadence);
  return o;
}

std::string ExperimentConfig::display_name() const {
  if (!label.empty()) return label;
  return policy + "/" + app;
}

json::Value ExperimentConfig::to_json() const {
  json::Value v = json::Value::object();
  v["label"] = label;
  v["app"] = app;
  v["policy"] = policy;
  v["sla"] = sla;
  v["use_lstm"] = use_lstm;
  v["seed"] = static_cast<long long>(seed);
  v["profile_seed"] = static_cast<long long>(profile_seed);
  v["drain_slack"] = drain_slack;
  v["lanes"] = static_cast<long long>(lanes);
  v["trace"] = trace.to_json();
  v["platform"] = serverless::to_json(platform);
  v["faults"] = faults::to_json(faults);
  v["observability"] = obs.to_json();
  return v;
}

ExperimentConfig ExperimentConfig::from_json(const json::Value& v) {
  json::expect_keys(v, "config",
                    {"label", "app", "policy", "sla", "use_lstm", "seed", "profile_seed",
                     "drain_slack", "lanes", "trace", "platform", "faults", "observability"});
  ExperimentConfig c;
  c.label = v.get("label", c.label);
  c.app = v.get("app", c.app);
  c.policy = v.get("policy", c.policy);
  c.sla = v.get("sla", c.sla);
  if (!(c.sla > 0.0)) json::reject("sla", "> 0", c.sla);
  c.use_lstm = v.get("use_lstm", c.use_lstm);
  c.seed = static_cast<std::uint64_t>(v.get("seed", static_cast<long long>(c.seed)));
  c.profile_seed =
      static_cast<std::uint64_t>(v.get("profile_seed", static_cast<long long>(c.profile_seed)));
  c.drain_slack = v.get("drain_slack", c.drain_slack);
  // It may be negative, down to minus the trace's horizon, which
  // exp::execute_cell checks once the trace is built.
  if (!std::isfinite(c.drain_slack)) json::reject("drain_slack", "finite", c.drain_slack);
  c.lanes = lane_count(v.get("lanes", static_cast<long long>(c.lanes)));
  if (const json::Value* t = v.find("trace")) c.trace = TraceSpec::from_json(*t);
  if (const json::Value* p = v.find("platform"))
    c.platform = serverless::platform_options_from_json(*p);
  if (const json::Value* f = v.find("faults")) c.faults = faults::fault_spec_from_json(*f);
  if (const json::Value* o = v.find("observability"))
    c.obs = ObservabilityOptions::from_json(*o);
  return c;
}

std::string ExperimentConfig::group_key() const {
  ExperimentConfig copy = *this;
  copy.seed = 0;
  copy.trace.seed = 0;
  copy.label.clear();
  copy.obs = {};  // artifact destinations never change what a cell computes
  return copy.to_json().dump();
}

std::size_t ExperimentGrid::cell_count() const {
  const auto n = [](std::size_t axis) { return axis == 0 ? std::size_t{1} : axis; };
  return n(apps.size()) * n(policies.size()) * n(slas.size()) * n(durations.size()) *
         n(init_failure_probs.size()) * n(straggler_probs.size()) * n(crash_rates.size()) *
         n(use_lstms.size()) * n(seeds.size()) * n(lanes.size());
}

namespace {

/// Append "name=value" to a grid-cell label when the axis is active.
void tag(std::string& label, bool active, const std::string& part) {
  if (!active) return;
  if (!label.empty()) label += '/';
  label += part;
}

}  // namespace

std::vector<ExperimentConfig> ExperimentGrid::expand() const {
  // Each axis falls back to a one-element list holding the base value so a
  // single nested loop covers every combination.
  const auto apps_ = apps.empty() ? std::vector<std::string>{base.app} : apps;
  const auto policies_ = policies.empty() ? std::vector<std::string>{base.policy} : policies;
  const auto slas_ = slas.empty() ? std::vector<double>{base.sla} : slas;
  const auto durations_ =
      durations.empty() ? std::vector<double>{base.trace.duration} : durations;
  const auto init_ps_ = init_failure_probs.empty()
                            ? std::vector<double>{base.faults.init_failure_prob}
                            : init_failure_probs;
  const auto straggler_ps_ = straggler_probs.empty()
                                 ? std::vector<double>{base.faults.straggler_prob}
                                 : straggler_probs;
  const auto crash_rates_ =
      crash_rates.empty() ? std::vector<double>{base.faults.crash_rate} : crash_rates;
  const auto lstms_ = use_lstms.empty() ? std::vector<bool>{base.use_lstm} : use_lstms;
  const auto seeds_ = seeds.empty() ? std::vector<std::uint64_t>{base.seed} : seeds;
  const auto lanes_ = lanes.empty() ? std::vector<int>{base.lanes} : lanes;

  std::vector<ExperimentConfig> out;
  out.reserve(cell_count());
  for (const auto& app : apps_)
    for (const auto& policy : policies_)
      for (const double sla : slas_)
        for (const double duration : durations_)
          for (const double init_p : init_ps_)
            for (const double straggler_p : straggler_ps_)
              for (const double crash_rate : crash_rates_)
                for (const bool lstm : lstms_)
                  for (const std::uint64_t seed : seeds_)
                    for (const int lane_count : lanes_) {
                      ExperimentConfig c = base;
                      c.app = app;
                      c.policy = policy;
                      c.sla = sla;
                      c.trace.duration = duration;
                      c.faults.init_failure_prob = init_p;
                      c.faults.straggler_prob = straggler_p;
                      c.faults.crash_rate = crash_rate;
                      c.use_lstm = lstm;
                      // A seed replicate re-rolls the whole stochastic world:
                      // the arrival process and the platform/fault streams.
                      c.seed = seed;
                      if (!seeds.empty()) c.trace.seed = seed;
                      c.lanes = lane_count;
                      // The label names every active non-seed axis; seed
                      // replicates of one group share it (see group_key).
                      std::string label;
                      tag(label, !apps.empty(), "app=" + app);
                      tag(label, !policies.empty(), "policy=" + policy);
                      tag(label, !slas.empty(), "sla=" + TextTable::num(sla, 2));
                      tag(label, !durations.empty(),
                          "duration=" + TextTable::num(duration, 0));
                      tag(label, !init_failure_probs.empty(),
                          "init_p=" + TextTable::num(init_p, 3));
                      tag(label, !straggler_probs.empty(),
                          "straggler_p=" + TextTable::num(straggler_p, 3));
                      tag(label, !crash_rates.empty(),
                          "crash_rate=" + TextTable::num(crash_rate, 4));
                      tag(label, !use_lstms.empty(),
                          std::string("lstm=") + (lstm ? "on" : "off"));
                      tag(label, !lanes.empty(), "lanes=" + std::to_string(lane_count));
                      c.label = label;
                      out.push_back(std::move(c));
                    }
  return out;
}

json::Value ExperimentGrid::to_json() const {
  json::Value v = json::Value::object();
  v["base"] = base.to_json();
  json::Value axes = json::Value::object();
  const auto strings = [](const std::vector<std::string>& xs) {
    json::Value a = json::Value::array();
    for (const auto& x : xs) a.push_back(x);
    return a;
  };
  const auto doubles = [](const std::vector<double>& xs) {
    json::Value a = json::Value::array();
    for (const double x : xs) a.push_back(x);
    return a;
  };
  if (!apps.empty()) axes["apps"] = strings(apps);
  if (!policies.empty()) axes["policies"] = strings(policies);
  if (!slas.empty()) axes["slas"] = doubles(slas);
  if (!durations.empty()) axes["durations"] = doubles(durations);
  if (!init_failure_probs.empty()) axes["init_failure_probs"] = doubles(init_failure_probs);
  if (!straggler_probs.empty()) axes["straggler_probs"] = doubles(straggler_probs);
  if (!crash_rates.empty()) axes["crash_rates"] = doubles(crash_rates);
  if (!use_lstms.empty()) {
    json::Value a = json::Value::array();
    for (const bool x : use_lstms) a.push_back(x);
    axes["use_lstms"] = std::move(a);
  }
  if (!seeds.empty()) {
    json::Value a = json::Value::array();
    for (const std::uint64_t x : seeds) a.push_back(static_cast<long long>(x));
    axes["seeds"] = std::move(a);
  }
  if (!lanes.empty()) {
    json::Value a = json::Value::array();
    for (const int x : lanes) a.push_back(static_cast<long long>(x));
    axes["lanes"] = std::move(a);
  }
  v["axes"] = std::move(axes);
  return v;
}

ExperimentGrid ExperimentGrid::from_json(const json::Value& v) {
  json::expect_keys(v, "grid", {"base", "axes"});
  ExperimentGrid g;
  if (const json::Value* b = v.find("base")) g.base = ExperimentConfig::from_json(*b);
  const json::Value* axes = v.find("axes");
  if (axes == nullptr) return g;
  json::expect_keys(*axes, "axes",
                    {"apps", "policies", "slas", "durations", "init_failure_probs",
                     "straggler_probs", "crash_rates", "use_lstms", "seeds", "lanes"});
  const auto strings = [&](const char* key, std::vector<std::string>& out) {
    if (const json::Value* a = axes->find(key))
      for (const auto& x : a->items(key)) out.push_back(x.as_string(key));
  };
  const auto doubles = [&](const char* key, std::vector<double>& out) {
    if (const json::Value* a = axes->find(key))
      for (const auto& x : a->items(key)) out.push_back(x.as_double(key));
  };
  strings("apps", g.apps);
  strings("policies", g.policies);
  doubles("slas", g.slas);
  for (const double sla : g.slas)
    if (!(sla > 0.0)) json::reject("slas", "> 0", sla);
  doubles("durations", g.durations);
  doubles("init_failure_probs", g.init_failure_probs);
  doubles("straggler_probs", g.straggler_probs);
  doubles("crash_rates", g.crash_rates);
  if (const json::Value* a = axes->find("use_lstms"))
    for (const auto& x : a->items("use_lstms")) g.use_lstms.push_back(x.as_bool("use_lstms"));
  if (const json::Value* a = axes->find("seeds"))
    for (const auto& x : a->items("seeds"))
      g.seeds.push_back(static_cast<std::uint64_t>(x.as_int("seeds")));
  if (const json::Value* a = axes->find("lanes"))
    for (const auto& x : a->items("lanes")) g.lanes.push_back(lane_count(x.as_int("lanes")));
  return g;
}

ExperimentGrid ExperimentGrid::load(const std::string& path) {
  return from_json(json::load_file(path));
}

void ExperimentGrid::save(const std::string& path) const { json::save_file(to_json(), path); }

apps::App resolve_app(const ExperimentConfig& config) {
  if (config.app == "wl1") return apps::make_amber_alert(config.sla);
  if (config.app == "wl2") return apps::make_image_query(config.sla);
  if (config.app == "wl3") return apps::make_voice_assistant(config.sla);
  if (config.app == "ipa") return apps::make_ipa(config.sla);
  std::ifstream is(config.app);
  if (!is.good())
    throw std::runtime_error("unknown app '" + config.app +
                             "' (not a preset or readable manifest)");
  std::ostringstream buf;
  buf << is.rdbuf();
  apps::App app = apps::parse_app(buf.str());
  app.sla = config.sla;
  return app;
}

workload::Trace build_trace(const ExperimentConfig& config, const apps::App& app) {
  const TraceSpec& spec = config.trace;
  Rng rng(spec.seed ^ std::hash<std::string>{}(app.name));
  check_trace(spec);
  if (spec.kind == "preset") {
    const auto options = workload::preset_for_workload(app.name, spec.duration);
    return workload::generate_trace(options, rng);
  }
  if (spec.kind == "regular")
    return workload::generate_regular_trace(spec.interval, spec.jitter, spec.duration, rng);
  if (spec.kind == "burst")
    return workload::generate_burst_window(spec.quiet_rate, spec.peak_rate, rng,
                                           spec.duration);
  if (spec.kind == "csv") {
    if (spec.file.empty()) throw std::runtime_error("trace kind 'csv' needs trace.file");
    return workload::load_csv_file(spec.file);
  }
  throw std::runtime_error("unknown trace kind '" + spec.kind + "'");
}

}  // namespace smiless::exp
