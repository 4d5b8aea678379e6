#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "alloc_counter.hpp"
#include "apps/catalog.hpp"
#include "baselines/experiment.hpp"
#include "common/rng.hpp"
#include "exp/artifacts.hpp"
#include "exp/runner.hpp"
#include "math/stats.hpp"
#include "prof/profiler.hpp"
#include "profiler/offline_profiler.hpp"
#include "serverless/sharding.hpp"
#include "timed_policy.hpp"
#include "workload/trace.hpp"
#include "workload/trace_io.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace sl = smiless::serverless;
namespace bl = smiless::baselines;
namespace ex = smiless::exp;
namespace wl = smiless::workload;
using smiless::json::Value;
using smiless::prof::Site;

constexpr double kSla = 2.0;                  ///< every app's end-to-end target (s), §VII-A
constexpr double kDrainSlack = 120.0;         ///< ExperimentConfig's default drain slack
constexpr std::uint64_t kProfileSeed = 2024;  ///< ExperimentConfig's default profiler seed
constexpr double kRegularJitter = 0.05;       ///< TraceSpec's default "regular" jitter

// --- workload definitions ----------------------------------------------------

/// A fleet of apps cycling through WL1/WL2/WL3, every app under its own
/// SMIless policy with statistical predictors, served by ShardedPlatform.
struct FleetSpec {
  std::size_t apps = 0;
  std::size_t machines = 0;
  double duration = 0.0;     ///< trace length (s)
  double regular_gap = 0.0;  ///< > 0: near-periodic traces with this gap; 0: presets
  int lanes = 1;
  int lane_threads = 1;
  smiless::faults::FaultSpec faults;
  double request_timeout = std::numeric_limits<double>::infinity();
  int max_retries = 12;
};

std::size_t scaled(std::size_t n, double scale, std::size_t floor) {
  return std::max(floor, static_cast<std::size_t>(std::lround(static_cast<double>(n) * scale)));
}

/// Warm serving: Azure-like preset traces at a ~2 s mean gap keep most
/// functions warm and batching; 4 lanes on 2 lane threads.
FleetSpec fleet_warm(double scale) {
  FleetSpec s;
  s.apps = scaled(1000, scale, 3);
  s.machines = scaled(500, scale, 4);
  s.duration = 1200.0;
  s.lanes = 4;
  s.lane_threads = 2;
  return s;
}

/// Pre-warm churn: near-periodic ~5 s gaps put SMIless in its just-in-time
/// pre-warm mode (§V-B Case I), under init failures, stragglers, random
/// machine crashes, a per-invocation timeout and a bounded retry budget.
FleetSpec fleet_prewarm_faults(double scale) {
  FleetSpec s;
  s.apps = scaled(1000, scale, 3);
  s.machines = scaled(200, scale, 2);
  s.duration = 900.0;
  s.regular_gap = 5.0;
  s.faults.init_failure_prob = 0.10;
  s.faults.straggler_prob = 0.02;
  s.faults.crash_rate = 1e-4;
  s.faults.mttr = 30.0;
  s.faults.crash_horizon = s.duration;
  s.request_timeout = 4.0;
  s.max_retries = 2;
  return s;
}

/// The paper's Fig. 8 cells: WL1-3 under SMIless with LSTM predictors on
/// the 8-machine testbed, through exp::Runner with the trace, metrics,
/// audit and series collectors on.
constexpr std::array<const char*, 3> kPaperApps = {"wl1", "wl2", "wl3"};
constexpr double kPaperDuration = 7200.0;
constexpr std::size_t kPaperThreads = 3;        ///< one cell per sweep thread
constexpr std::size_t kPaperPolicyThreads = 1;  ///< solver pool; busy threads stay <= 4

smiless::apps::App fleet_app(std::size_t i) {
  switch (i % 3) {
    case 0: return smiless::apps::make_amber_alert(kSla);
    case 1: return smiless::apps::make_image_query(kSla);
    default: return smiless::apps::make_voice_assistant(kSla);
  }
}

// --- books and checks --------------------------------------------------------

/// What a user reads off a finished run, summed over apps.
struct Books {
  long long arrivals = 0;  ///< arrivals the benchmark generated
  long long submitted = 0;
  long long completed = 0;
  long long failed = 0;
  long long violations = 0;
  long long invocations = 0;
  long long batches = 0;
  long long initializations = 0;
  long long retries = 0;
  long long evictions = 0;
  long long timeouts = 0;
  double cost = 0.0;
  std::vector<double> e2e;
  std::uint64_t events_fired = 0;
  std::uint64_t events_cancelled = 0;
  double p50 = 0.0;
  double p99 = 0.0;

  void add_app(long long sub, long long done, long long fail, std::size_t first_e2e) {
    if (done + fail > sub)
      throw std::runtime_error("conservation: " + std::to_string(done) + " completed + " +
                               std::to_string(fail) + " failed > " + std::to_string(sub) +
                               " submitted");
    submitted += sub;
    completed += done;
    failed += fail;
    violations += sub - done;  // failed or still in flight at the horizon
    for (std::size_t i = first_e2e; i < e2e.size(); ++i) {
      if (!std::isfinite(e2e[i]) || e2e[i] < 0.0)
        throw std::runtime_error("conservation: latency " + std::to_string(e2e[i]));
      if (e2e[i] > kSla) ++violations;
    }
  }

  void add(const sl::AppMetrics& m) {
    const std::size_t first = e2e.size();
    for (const auto& r : m.completed) e2e.push_back(r.e2e());
    add_app(m.submitted, static_cast<long long>(m.completed.size()), m.failed, first);
    for (const auto& f : m.per_function) {
      invocations += f.invocations;
      batches += f.batches;
      initializations += f.initializations;
      retries += f.retries;
      evictions += f.evictions;
      timeouts += f.timeouts;
      cost += f.cost;
    }
  }

  void add(const bl::RunResult& r) {
    const std::size_t first = e2e.size();
    e2e.insert(e2e.end(), r.e2e.begin(), r.e2e.end());
    add_app(r.submitted, r.completed, r.failed, first);
    invocations += r.invocations;
    initializations += r.initializations;
    retries += r.retries;
    evictions += r.evictions;
    timeouts += r.timeouts;
    cost += r.cost;
  }

  /// Close the books: latency quantiles and the last conservation check.
  void finish() {
    if (submitted != arrivals)
      throw std::runtime_error("conservation: " + std::to_string(submitted) +
                               " submitted != " + std::to_string(arrivals) +
                               " generated arrivals");
    if (!e2e.empty()) {
      p50 = smiless::math::quantile_nearest_rank(e2e, 50.0);
      p99 = smiless::math::quantile_nearest_rank(e2e, 99.0);
    }
  }

  Value to_json() const {
    Value v = Value::object();
    v["arrivals"] = arrivals;
    v["submitted"] = submitted;
    v["completed"] = completed;
    v["failed"] = failed;
    v["in_flight"] = submitted - completed - failed;
    v["violations"] = violations;
    v["cost_usd"] = cost;
    v["latency_p50_s"] = p50;
    v["latency_p99_s"] = p99;
    v["latency_samples"] = static_cast<long long>(e2e.size());
    return v;
  }

  /// The trajectory fingerprint the gate compares across repetitions and
  /// passes; any change of the simulated trajectory moves it.
  Value fingerprint() const {
    Value v = Value::object();
    v["submitted"] = submitted;
    v["completed"] = completed;
    v["failed"] = failed;
    v["events_fired"] = events_fired;
    v["events_cancelled"] = events_cancelled;
    v["cost_usd"] = cost;
    v["latency_p50_s"] = p50;
    v["latency_p99_s"] = p99;
    return v;
  }
};

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Per-layer report: {name: {"value", "unit", "samples"}}.
class Layers {
 public:
  void add(const std::string& name, double value, const char* unit, long long samples) {
    Value m = Value::object();
    m["value"] = value;
    m["unit"] = unit;
    m["samples"] = samples;
    v_[name] = std::move(m);
  }
  Value take() { return std::move(v_); }

 private:
  Value v_ = Value::object();
};

const smiless::prof::SiteAgg& site(const smiless::prof::Profiler& p, Site s) {
  return p.sites()[static_cast<std::size_t>(s)];
}

/// Exclusive ns per call of one profiler site.
double ns_per_call(const smiless::prof::Profiler& p, Site s) {
  const auto& a = site(p, s);
  return ratio(static_cast<double>(a.exclusive_ns), static_cast<double>(a.count));
}

HookTimes merged(const std::vector<std::shared_ptr<TimedPolicy>>& policies,
                 const HookTimes& (TimedPolicy::*hook)() const) {
  HookTimes out;
  for (const auto& p : policies)
    if (p != nullptr) out.merge(((*p).*hook)());
  return out;
}

/// The layers every workload measures the same way: the engine and the
/// serverless subsystems through the self-profiler's sites, the policies
/// through the timing decorator. `busy_ns` is the time the simulation
/// threads spent serving (summed over lanes), the base of every share.
void common_layers(Layers& L, const Books& b, const smiless::prof::Profiler& prof,
                   const std::vector<std::shared_ptr<TimedPolicy>>& policies,
                   std::uint64_t allocs, double busy_ns) {
  const double req = static_cast<double>(b.submitted);
  const auto fired = static_cast<double>(b.events_fired);
  L.add("sim.events_per_request", ratio(fired, req), "events/req", b.submitted);
  L.add("sim.cancels_per_request", ratio(static_cast<double>(b.events_cancelled), req),
        "cancels/req", b.submitted);
  L.add("sim.schedule_ns", ns_per_call(prof, Site::EngineSchedule), "ns",
        static_cast<long long>(site(prof, Site::EngineSchedule).count));
  L.add("sim.cancel_ns", ns_per_call(prof, Site::EngineCancel), "ns",
        static_cast<long long>(site(prof, Site::EngineCancel).count));
  L.add("sim.loop_share_pct",
        100.0 * ratio(static_cast<double>(site(prof, Site::EngineRun).exclusive_ns), busy_ns),
        "%", static_cast<long long>(site(prof, Site::EngineRun).count));
  L.add("sim.allocs_per_event", ratio(static_cast<double>(allocs), fired), "allocs/event",
        static_cast<long long>(b.events_fired));

  const auto& tick = site(prof, Site::GatewayWindow);
  const auto& dispatch = site(prof, Site::Dispatch);
  L.add("serverless.gateway_tick_ns", ns_per_call(prof, Site::GatewayWindow), "ns",
        static_cast<long long>(tick.count));
  L.add("serverless.ticks_per_request", ratio(static_cast<double>(tick.count), req),
        "ticks/req", b.submitted);
  L.add("serverless.dispatch_ns", ns_per_call(prof, Site::Dispatch), "ns",
        static_cast<long long>(dispatch.count));
  L.add("serverless.dispatches_per_request", ratio(static_cast<double>(dispatch.count), req),
        "dispatches/req", b.submitted);
  L.add("serverless.batch_done_ns", ns_per_call(prof, Site::PoolBatchDone), "ns",
        static_cast<long long>(site(prof, Site::PoolBatchDone).count));
  L.add("serverless.create_instance_ns", ns_per_call(prof, Site::PoolCreate), "ns",
        static_cast<long long>(site(prof, Site::PoolCreate).count));
  L.add("serverless.inits_per_invocation",
        ratio(static_cast<double>(b.initializations), static_cast<double>(b.invocations)),
        "inits/inv", b.invocations);
  L.add("serverless.invocations_per_batch",
        ratio(static_cast<double>(b.invocations), static_cast<double>(b.batches)),
        "inv/batch", b.batches);
  L.add("serverless.retries_per_request", ratio(static_cast<double>(b.retries), req),
        "retries/req", b.submitted);
  L.add("serverless.evictions", static_cast<double>(b.evictions), "count", b.submitted);
  L.add("serverless.timeouts", static_cast<double>(b.timeouts), "count", b.submitted);

  const HookTimes window = merged(policies, &TimedPolicy::window);
  const HookTimes arrival = merged(policies, &TimedPolicy::arrival);
  const HookTimes deploy = merged(policies, &TimedPolicy::deploy);
  const HookTimes failed = merged(policies, &TimedPolicy::failed);
  L.add("core.on_window_p50_us", window.quantile_ns(0.5) / 1e3, "us",
        static_cast<long long>(window.calls));
  L.add("core.on_window_max_ms", static_cast<double>(window.max_ns) / 1e6, "ms",
        static_cast<long long>(window.calls));
  L.add("core.on_arrival_us", arrival.mean_ns() / 1e3, "us",
        static_cast<long long>(arrival.calls));
  L.add("core.on_deploy_ms", deploy.mean_ns() / 1e6, "ms", static_cast<long long>(deploy.calls));
  const double hook_ns = static_cast<double>(window.total_ns + arrival.total_ns +
                                             deploy.total_ns + failed.total_ns);
  L.add("core.hook_share_pct", 100.0 * ratio(hook_ns, busy_ns), "%",
        static_cast<long long>(window.calls + arrival.calls + deploy.calls + failed.calls));
}

/// Exclusive wall time per profiler site, for the report's layer shares.
Value site_table(const smiless::prof::Profiler& prof, double busy_ns) {
  Value sites = Value::object();
  for (std::size_t i = 0; i < smiless::prof::kSiteCount; ++i) {
    const auto& a = prof.sites()[i];
    if (a.count == 0) continue;
    Value row = Value::object();
    row["calls"] = static_cast<long long>(a.count);
    row["exclusive_ms"] = static_cast<double>(a.exclusive_ns) / 1e6;
    sites[smiless::prof::site_name(static_cast<Site>(i))] = std::move(row);
  }
  Value out = Value::object();
  out["busy_ms"] = busy_ns / 1e6;
  out["sites"] = std::move(sites);
  return out;
}

void setup_layers(Layers& L, double store_s, double trace_s, long long apps) {
  L.add("profiler.store_build_s", store_s, "s", 1);
  L.add("workload.trace_build_s", trace_s, "s", apps);
}

Value report(const char* pass, double setup_s, std::uint64_t serve_start_ns, double run_s,
             double serve_s, const Books& b) {
  Value out = Value::object();
  out["pass"] = pass;
  out["setup_s"] = setup_s;
  out["serve_start_ns"] = static_cast<long long>(serve_start_ns);
  out["run_s"] = run_s;
  out["serve_s"] = serve_s;
  out["books"] = b.to_json();
  out["fingerprint"] = b.fingerprint();
  return out;
}

// --- fleets ------------------------------------------------------------------

/// Everything a fleet builds before its first serving call.
struct FleetSetup {
  std::unique_ptr<sl::ShardedPlatform> platform;
  std::vector<std::shared_ptr<TimedPolicy>> timed;  ///< traced pass only
  long long arrivals = 0;
  double horizon = 0.0;
  double store_s = 0.0;
  double trace_s = 0.0;
};

/// Profile store, apps, traces, policies, registration.
FleetSetup setup_fleet(const RunArgs& args, const FleetSpec& spec,
                       smiless::prof::Profiler* prof) {
  FleetSetup s;
  std::uint64_t t = now_ns();
  smiless::Rng profile_rng(kProfileSeed);
  const bl::ProfileStore store(smiless::profiler::OfflineProfiler{}, profile_rng);
  s.store_s = seconds_since(t);

  sl::ShardOptions so;
  so.lanes = spec.lanes;
  so.lane_threads = spec.lane_threads;
  so.seed = args.seed;
  so.machines = spec.machines;
  so.faults = spec.faults;
  so.platform.request_timeout = spec.request_timeout;
  so.platform.max_retries = spec.max_retries;
  so.prof = prof;
  s.platform = std::make_unique<sl::ShardedPlatform>(so);

  bl::PolicySettings settings;
  settings.use_lstm = false;
  smiless::Rng root(args.seed);
  for (std::size_t i = 0; i < spec.apps; ++i) {
    smiless::apps::App app = fleet_app(i);
    t = now_ns();
    smiless::Rng rng = root.fork(i + 1);
    wl::Trace trace =
        spec.regular_gap > 0.0
            ? wl::generate_regular_trace(spec.regular_gap, kRegularJitter, spec.duration, rng)
            : wl::generate_trace(wl::preset_for_workload(app.name, spec.duration), rng);
    s.trace_s += seconds_since(t);
    std::shared_ptr<sl::Policy> policy =
        bl::make_policy(bl::PolicyKind::Smiless, app, store, settings);
    if (args.pass == Pass::Traced) {
      s.timed.push_back(std::make_shared<TimedPolicy>(std::move(policy)));
      policy = s.timed.back();
    }
    s.arrivals += static_cast<long long>(trace.arrivals.size());
    s.horizon = std::max(s.horizon, static_cast<double>(trace.counts.size()) * trace.window);
    s.platform->add_app(std::move(app), std::move(policy), std::move(trace.arrivals));
  }
  return s;
}

Value run_fleet(const RunArgs& args, const FleetSpec& spec) {
  const bool traced = args.pass == Pass::Traced;
  smiless::prof::Profiler profiler;
  smiless::prof::Profiler* prof = traced ? &profiler : nullptr;
  const std::uint64_t t_setup = now_ns();
  const FleetSetup setup = setup_fleet(args, spec, prof);
  const double setup_s = seconds_since(t_setup);
  sl::ShardedPlatform& platform = *setup.platform;
  const std::vector<std::shared_ptr<TimedPolicy>>& timed = setup.timed;
  Books books;
  books.arrivals = setup.arrivals;

  // Serving: the lanes run to the horizon, then the books close.
  const std::uint64_t allocs0 = allocations();
  arm_alloc_counter(traced);
  const std::uint64_t t_serve = now_ns();
  {
    smiless::prof::ScopeTimer root_scope(prof, Site::CellRun);
    platform.run(setup.horizon + kDrainSlack);
  }
  const double run_s = seconds_since(t_serve);
  arm_alloc_counter(false);
  const std::uint64_t allocs = allocations() - allocs0;
  for (std::size_t i = 0; i < spec.apps; ++i) books.add(platform.metrics(static_cast<int>(i)));
  const smiless::sim::EngineStats es = platform.engine_stats();
  books.events_fired = es.fired;
  books.events_cancelled = es.cancelled;
  books.finish();
  const double serve_s = seconds_since(t_serve);

  Value out = report(traced ? "traced" : "timed", setup_s, t_serve, run_s, serve_s, books);
  if (!traced) return out;

  Layers L;
  // Lane busy time: each lane's summed window steps, the slowest setting
  // the barrier pace.
  double busy_ns = 0.0;
  double slowest_ns = 0.0;
  for (const auto& lane : profiler.lanes()) {
    const auto step_ns =
        static_cast<double>(lane.sites[static_cast<std::size_t>(Site::LaneStep)].inclusive_ns);
    busy_ns += step_ns;
    slowest_ns = std::max(slowest_ns, step_ns);
  }
  const auto lanes = static_cast<long long>(profiler.lanes().size());
  common_layers(L, books, profiler, timed, allocs, busy_ns);
  out["profile"] = site_table(profiler, busy_ns);
  const auto& step = site(profiler, Site::LaneStep);
  L.add("serverless.lane_step_ms",
        ratio(static_cast<double>(step.inclusive_ns), static_cast<double>(step.count)) / 1e6,
        "ms", static_cast<long long>(step.count));
  L.add("serverless.lane_imbalance", ratio(slowest_ns, busy_ns / static_cast<double>(lanes)),
        "x", lanes);
  L.add("serverless.lane_parallelism",
        ratio(busy_ns, static_cast<double>(site(profiler, Site::CellRun).inclusive_ns)), "x",
        lanes);
  // The fleets attach no audit log, bus or runner: the core.solver, obs and
  // exp metrics stay unreported here.
  setup_layers(L, setup.store_s, setup.trace_s, static_cast<long long>(spec.apps));
  const smiless::faults::FaultStats fst = platform.fault_stats();
  L.add("faults.init_failures", static_cast<double>(fst.init_failures), "count", books.submitted);
  L.add("faults.stragglers", static_cast<double>(fst.stragglers), "count", books.submitted);
  L.add("faults.crashes", static_cast<double>(fst.crashes), "count", books.submitted);
  out["layers"] = L.take();
  return out;
}

// --- paper cells -------------------------------------------------------------

struct Artifact {
  const char* layer;  ///< per-layer metric timing this emitter
  std::string path;
};

Value run_paper(const RunArgs& args) {
  const bool traced = args.pass == Pass::Traced;
  const double duration = std::max(300.0, kPaperDuration * args.scale);
  smiless::prof::Profiler sweep_prof;
  ex::RunnerOptions ro;
  ro.threads = kPaperThreads;
  ro.policy_threads = kPaperPolicyThreads;
  ro.lane_threads = 1;
  ro.profiler = traced ? &sweep_prof : nullptr;

  fs::create_directories(args.workdir);
  const fs::path dir(args.workdir);
  ex::ObservabilityOptions obs;
  obs.trace_out = (dir / "trace.json").string();
  obs.metrics_out = (dir / "metrics.json").string();
  obs.audit_out = (dir / "audit.json").string();
  obs.series_out = (dir / "series.json").string();
  std::array<std::shared_ptr<TimedPolicy>, kPaperApps.size()> timed_slots;

  // The inputs, before the clock starts: each cell's trace, generated from
  // the seed and written as CSV for the cell to replay.
  std::vector<ex::ExperimentConfig> cells;
  Books books;
  double trace_s = 0.0;
  smiless::Rng root(args.seed);
  for (std::size_t k = 0; k < kPaperApps.size(); ++k) {
    ex::ExperimentConfig c;
    c.app = kPaperApps[k];
    c.policy = "smiless";
    c.sla = kSla;
    c.use_lstm = true;
    c.seed = args.seed;
    c.profile_seed = kProfileSeed;
    c.drain_slack = kDrainSlack;
    const smiless::apps::App app = ex::resolve_app(c);
    const std::uint64_t t = now_ns();
    smiless::Rng rng = root.fork(k + 1);
    const wl::Trace trace = wl::generate_trace(wl::preset_for_workload(app.name, duration), rng);
    trace_s += seconds_since(t);
    books.arrivals += static_cast<long long>(trace.arrivals.size());
    c.trace.kind = "csv";
    c.trace.file = (dir / ("arrivals-" + std::to_string(k) + ".csv")).string();
    c.trace.duration = duration;
    wl::save_csv_file(trace, c.trace.file);
    c.obs = obs;
    if (traced) {
      // The runner's own policy construction, wrapped in the decorator.
      c.policy_override = [&slot = timed_slots[k]](const ex::CellContext& ctx) {
        bl::PolicySettings ps;
        ps.use_lstm = ctx.config.use_lstm;
        ps.pool = ctx.pool;
        ps.oracle_trace = &ctx.trace;
        ps.audit = ctx.telemetry != nullptr ? &ctx.telemetry->audit() : nullptr;
        slot = std::make_shared<TimedPolicy>(
            bl::make_policy(bl::PolicyKind::Smiless, ctx.app, ctx.profiles, ps));
        return std::shared_ptr<smiless::serverless::Policy>(slot);
      };
    }
    cells.push_back(std::move(c));
  }

  // Set-up: the runner and its profile store.
  const std::uint64_t t_setup = now_ns();
  ex::Runner runner(ro);
  const std::uint64_t t_store = now_ns();
  runner.profiles(kProfileSeed);
  const double store_s = seconds_since(t_store);
  const double setup_s = seconds_since(t_setup);

  // Serving: the cells, then every requested artifact, then the books.
  const std::uint64_t allocs0 = allocations();
  arm_alloc_counter(traced);
  const std::uint64_t t_serve = now_ns();
  const std::vector<ex::CellResult> results = runner.run(cells);
  const double run_s = seconds_since(t_serve);
  arm_alloc_counter(false);
  const std::uint64_t allocs = allocations() - allocs0;

  const std::array<Artifact, 4> artifacts = {{{"obs.perfetto_s", obs.trace_out},
                                              {"obs.metrics_s", obs.metrics_out},
                                              {"obs.audit_s", obs.audit_out},
                                              {"obs.series_s", obs.series_out}}};
  std::array<double, 4> emit_s{};
  if (traced) {
    // The emitters write_artifacts runs, one by one, each timed.
    const std::array<Value (*)(const std::vector<ex::CellResult>&), 4> emitters = {
        ex::combined_trace, ex::combined_metrics, ex::combined_audit, ex::combined_series};
    for (std::size_t i = 0; i < emitters.size(); ++i) {
      const std::uint64_t t0 = now_ns();
      smiless::json::save_file(emitters[i](results), artifacts[i].path);
      emit_s[i] = seconds_since(t0);
    }
  } else {
    ex::write_artifacts(results, obs);
  }
  for (const auto& cell : results) {
    books.add(cell.result);
    const auto& reg = cell.telemetry->registry();
    books.batches += static_cast<long long>(reg.counter("events/batch_start"));
    books.events_fired += reg.counter("engine/events_fired");
    books.events_cancelled += reg.counter("engine/events_cancelled");
  }
  books.finish();
  const double serve_s = seconds_since(t_serve);

  double artifact_bytes = 0.0;
  for (const auto& a : artifacts) artifact_bytes += static_cast<double>(fs::file_size(a.path));

  Value out = report(traced ? "traced" : "timed", setup_s, t_serve, run_s, serve_s, books);
  if (!traced) return out;

  // The same cells once more with every collector detached (no profiler,
  // no decorator): the base of obs.online_overhead_x. Its books must match.
  std::vector<ex::ExperimentConfig> detached = cells;
  for (auto& c : detached) {
    c.obs = ex::ObservabilityOptions{};
    c.policy_override = nullptr;
  }
  ro.profiler = nullptr;
  ex::Runner plain(ro);
  plain.profiles(kProfileSeed);
  const std::uint64_t t_detached = now_ns();
  const std::vector<ex::CellResult> bare = plain.run(detached);
  const double detached_run_s = seconds_since(t_detached);
  Books bare_books;
  bare_books.arrivals = books.arrivals;
  for (const auto& cell : bare) bare_books.add(cell.result);
  bare_books.finish();
  // Event counts need the collectors; the rest of the books must agree.
  if (bare_books.to_json().dump() != books.to_json().dump())
    throw std::runtime_error("detached cells diverged: " + bare_books.to_json().dump() +
                             " vs " + books.to_json().dump());
  out["detached_run_s"] = detached_run_s;

  Layers L;
  const auto busy_ns = static_cast<double>(sweep_prof.root_ns());
  std::vector<std::shared_ptr<TimedPolicy>> timed(timed_slots.begin(), timed_slots.end());
  common_layers(L, books, sweep_prof, timed, allocs, busy_ns);
  out["profile"] = site_table(sweep_prof, busy_ns);
  // One monolithic world per cell and no faults: the lane and fault metrics
  // stay unreported.

  double solver_s = 0.0;
  long long decisions = 0;
  double bus_events = 0.0;
  double cell_s = 0.0;
  for (const auto& cell : results) {
    for (const auto& rec : cell.telemetry->audit().records()) solver_s += rec.solver_seconds;
    decisions += static_cast<long long>(cell.telemetry->audit().records().size());
    bus_events += static_cast<double>(cell.telemetry->bus().size());
    cell_s += cell.wall_seconds;
  }
  const auto n_cells = static_cast<long long>(results.size());
  L.add("core.solver_ms", solver_s * 1e3, "ms", decisions);
  L.add("core.decisions", static_cast<double>(decisions), "count", n_cells);
  setup_layers(L, store_s, trace_s, n_cells);
  L.add("obs.events_per_request", ratio(bus_events, static_cast<double>(books.submitted)),
        "events/req", books.submitted);
  double emit_total = 0.0;
  for (std::size_t i = 0; i < artifacts.size(); ++i) {
    L.add(artifacts[i].layer, emit_s[i], "s", 1);
    emit_total += emit_s[i];
  }
  L.add("obs.emit_s", emit_total, "s", static_cast<long long>(artifacts.size()));
  L.add("obs.artifact_mb", artifact_bytes / (1024.0 * 1024.0), "MiB",
        static_cast<long long>(artifacts.size()));
  L.add("exp.cell_s", cell_s / static_cast<double>(n_cells), "s", n_cells);
  out["layers"] = L.take();
  return out;
}

}  // namespace

Value run_workload(const RunArgs& args) {
  Value out;
  if (args.workload == "fleet_warm") {
    out = run_fleet(args, fleet_warm(args.scale));
  } else if (args.workload == "fleet_prewarm_faults") {
    out = run_fleet(args, fleet_prewarm_faults(args.scale));
  } else if (args.workload == "paper_observed") {
    out = run_paper(args);
  } else {
    throw std::runtime_error("unknown workload '" + args.workload + "'");
  }
  out["workload"] = args.workload;
  out["seed"] = static_cast<long long>(args.seed);
  out["peak_rss_mb"] = peak_rss_mib();
  out["compiler"] = __VERSION__;
  return out;
}

}  // namespace perfbench
