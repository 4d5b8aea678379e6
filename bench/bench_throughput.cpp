// Simulator throughput baseline: one large colocated cell — hundreds of
// machines, thousands of DAG applications, a multi-hour Poisson + burst
// trace per app — driven end-to-end through the Platform on both event
// queue implementations (the calendar queue that serves the hot path, and
// the pre-calendar binary-heap + std::map reference), plus the intra-cell
// sharding axis (ShardedPlatform at lanes 1/2/4/8, streaming per-window
// arrival injection) and a pure-queue hold-model microbench that isolates
// the data structure from platform work. Records events/sec, wall time,
// peak RSS, EngineStats and CalendarStats into BENCH_throughput.json (see
// DESIGN.md §13–14).
//
// Correctness gates: both queue impls must produce bit-identical
// simulation trajectories, and the lanes=1 sharded run must reproduce the
// monolithic trajectory's counts exactly, or the bench aborts. (Lanes > 1
// is a different cell — the fleet is partitioned — so its counts are
// reported per lane count, not gated against the monolithic run.)
//
// Timing and RSS are measurements of the harness itself, not simulated
// behaviour; the trajectory counts in the artifact are byte-stable for a
// given config, the measured sections are not. Every end-to-end cell and
// every microbench runs in a forked child process: ru_maxrss is a
// process-lifetime high-water mark, and a multi-GB run leaves the parent
// allocator's arena grown and fragmented — without isolation each
// measurement inherits its predecessors' heap and both RSS and events/s
// become artifacts of run *order* rather than of the configuration.
//
// Knobs: --apps N --machines N --nodes N --duration S --events N --out PATH
// (--duration / --lane-threads are shared bench flags, like every bench
// binary).
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "apps/catalog.hpp"
#include "bench/bench_common.hpp"
#include "cluster/cluster.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "prof/profiler.hpp"
#include "serverless/plan.hpp"
#include "serverless/platform.hpp"
#include "serverless/platform_view.hpp"
#include "serverless/policy.hpp"
#include "serverless/sharding.hpp"
#include "sim/engine.hpp"
#include "workload/trace.hpp"

using namespace smiless;

namespace {

// getrusage's ru_maxrss is the process-lifetime high-water mark (KiB on
// Linux); not in the detlint catalog because it cannot order or time
// anything simulated.
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double now_seconds() {
  // detlint:allow(wall-clock) harness throughput measurement; stays out of the simulation
  const auto t = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double>(t).count();
}

const char* impl_name(sim::Engine::QueueImpl impl) {
  return impl == sim::Engine::QueueImpl::Calendar ? "calendar" : "binary_heap";
}

/// Run `fn` in a forked child and ship its trivially-copyable result back
/// over a pipe, so each measurement starts from a pristine heap and its
/// ru_maxrss describes only that configuration. The simulation itself is
/// deterministic either way — isolation only de-noises the measured
/// sections. Falls back to in-process execution if fork is unavailable.
template <typename R, typename Fn>
R run_isolated(Fn&& fn) {
  static_assert(std::is_trivially_copyable_v<R>);
  int fds[2];
  if (pipe(fds) != 0) return fn();
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return fn();
  }
  if (pid == 0) {
    close(fds[0]);
    const R r = fn();
    const char* p = reinterpret_cast<const char*>(&r);
    std::size_t left = sizeof(R);
    while (left > 0) {
      const ssize_t n = write(fds[1], p, left);
      if (n <= 0) _exit(3);
      p += n;
      left -= static_cast<std::size_t>(n);
    }
    _exit(0);
  }
  close(fds[1]);
  R r{};
  char* p = reinterpret_cast<char*>(&r);
  std::size_t got = 0;
  while (got < sizeof(R)) {
    const ssize_t n = read(fds[0], p + got, sizeof(R) - got);
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (got != sizeof(R) || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "bench_throughput: isolated child failed (status %d)\n", status);
    std::exit(1);
  }
  return r;
}

struct CellConfig {
  std::size_t apps = 1500;
  std::size_t machines = 320;
  std::size_t nodes_per_app = 3;
  double duration = 1800.0;
  std::uint64_t seed = 42;
};

/// Always-warm policy with a finite keep-alive: enough lifecycle churn to
/// exercise the cancel/tombstone path (keep-alive timers are cancelled on
/// every reuse) without the full SMIless optimizer dominating the profile.
class KeepWarmPolicy final : public serverless::Policy {
 public:
  std::string name() const override { return "bench-keepwarm"; }
  void on_deploy(serverless::AppId app, const apps::App& spec,
                 serverless::PlatformView& platform) override {
    for (std::size_t n = 0; n < spec.dag.size(); ++n) {
      serverless::FunctionPlan plan;
      plan.keepalive = 60.0;
      plan.max_batch = 4;
      platform.set_plan(app, static_cast<dag::NodeId>(n), plan);
    }
  }
};

struct EndToEnd {
  std::uint64_t scheduled = 0;
  std::uint64_t fired = 0;
  std::uint64_t cancelled = 0;
  long long submitted = 0;
  long long completed = 0;
  double wall_seconds = 0.0;
  double events_per_sec = 0.0;
  double rss_after_mb = 0.0;
  sim::CalendarStats cal;  // calendar impl only
  prof::Snapshot profile;  // self-profiler wall-time breakdown
};

/// Drive run_until in visible chunks when --progress is on: same trajectory
/// (run_until is re-entrant on sim time), plus a running events/sec + ETA
/// line on stderr. ETA extrapolates wall time per simulated second.
void run_with_progress(sim::Engine& engine, double end, const char* label, double t0) {
  if (!bench::bench_args().progress) {
    engine.run_until(end);
    return;
  }
  constexpr int kChunks = 50;
  for (int k = 1; k <= kChunks; ++k) {
    engine.run_until(end * k / kChunks);
    const double elapsed = now_seconds() - t0;
    const double frac = static_cast<double>(k) / kChunks;
    const double eta = frac > 0.0 ? elapsed * (1.0 - frac) / frac : 0.0;
    const double rate =
        elapsed > 0.0 ? static_cast<double>(engine.stats().fired) / elapsed : 0.0;
    std::fprintf(stderr, "\rbench_throughput: [%s] %3.0f%%  %.2fM events/s  ETA %5.1fs   ",
                 label, 100.0 * frac, rate / 1e6, eta);
  }
  std::fprintf(stderr, "\n");
}

EndToEnd run_cell(sim::Engine::QueueImpl impl, const CellConfig& cc,
                  const std::vector<workload::Trace>& traces) {
  const double t0 = now_seconds();

  prof::Profiler profiler;
  sim::Engine engine(impl);
  engine.set_profiler(&profiler);
  cluster::Cluster cluster(cc.machines, cluster::MachineSpec{});
  Rng rng(cc.seed);
  serverless::PlatformOptions popt;
  popt.prof = &profiler;
  serverless::Platform platform(engine, cluster, perf::Pricing{}, rng, popt);
  auto policy = std::make_shared<KeepWarmPolicy>();

  double horizon = 0.0;
  EndToEnd r;
  {
    // Root scope: every instrumented site below nests under it, so the
    // profile section's exclusive times sum to this bracket exactly.
    prof::ScopeTimer root(&profiler, prof::Site::CellRun);
    for (std::size_t i = 0; i < cc.apps; ++i) {
      apps::App app = apps::make_synthetic_pipeline(cc.nodes_per_app, /*sla=*/2.0);
      const serverless::AppId id = platform.deploy(std::move(app), policy);
      for (SimTime t : traces[i].arrivals) platform.submit_request(id, t);
      r.submitted += static_cast<long long>(traces[i].arrivals.size());
      horizon = std::max(horizon,
                         static_cast<double>(traces[i].counts.size()) * traces[i].window);
    }
    const double end = horizon + 120.0;  // drain slack
    run_with_progress(engine, end, impl_name(impl), t0);
    platform.finalize(end);
  }

  r.wall_seconds = now_seconds() - t0;
  r.profile = profiler.snapshot();
  r.scheduled = engine.stats().scheduled;
  r.fired = engine.stats().fired;
  r.cancelled = engine.stats().cancelled;
  r.events_per_sec =
      r.wall_seconds > 0.0 ? static_cast<double>(r.fired) / r.wall_seconds : 0.0;
  r.rss_after_mb = peak_rss_mb();
  if (const sim::CalendarStats* cs = engine.calendar_stats()) r.cal = *cs;
  for (std::size_t i = 0; i < cc.apps; ++i)
    r.completed += static_cast<long long>(
        platform.metrics(static_cast<serverless::AppId>(i)).completed.size());
  return r;
}

/// The same cell through ShardedPlatform: apps hash-partitioned into lanes,
/// arrivals injected one window at a time instead of scheduled upfront. With
/// one lane this is the baseline cell's trajectory with a bounded live event
/// set; with more lanes the fleet is partitioned too.
EndToEnd run_lanes(int lanes, int lane_threads, const CellConfig& cc,
                   const std::vector<workload::Trace>& traces) {
  const double t0 = now_seconds();

  prof::Profiler profiler;
  serverless::ShardOptions so;
  so.lanes = lanes;
  so.lane_threads = lane_threads;
  so.seed = cc.seed;
  so.machines = cc.machines;
  so.prof = &profiler;
  serverless::ShardedPlatform sharded(std::move(so));

  double horizon = 0.0;
  EndToEnd r;
  {
    prof::ScopeTimer root(&profiler, prof::Site::CellRun);
    for (std::size_t i = 0; i < cc.apps; ++i) {
      apps::App app = apps::make_synthetic_pipeline(cc.nodes_per_app, /*sla=*/2.0);
      sharded.add_app(std::move(app), std::make_shared<KeepWarmPolicy>(),
                      traces[i].arrivals);
      r.submitted += static_cast<long long>(traces[i].arrivals.size());
      horizon = std::max(horizon,
                         static_cast<double>(traces[i].counts.size()) * traces[i].window);
    }
    sharded.run(horizon + 120.0);
  }

  r.wall_seconds = now_seconds() - t0;
  r.profile = profiler.snapshot();
  const sim::EngineStats stats = sharded.engine_stats();
  r.scheduled = stats.scheduled;
  r.fired = stats.fired;
  r.cancelled = stats.cancelled;
  r.events_per_sec =
      r.wall_seconds > 0.0 ? static_cast<double>(r.fired) / r.wall_seconds : 0.0;
  r.rss_after_mb = peak_rss_mb();
  for (std::size_t i = 0; i < cc.apps; ++i)
    r.completed +=
        static_cast<long long>(sharded.metrics(static_cast<int>(i)).completed.size());
  return r;
}

/// Classic hold-model microbench: keep `live` events pending, repeatedly
/// pop the earliest and schedule a replacement at now + exp(1). Isolates
/// schedule/pop/cancel cost from platform callback work; with thousands
/// pending this is where the heap pays its O(log n) and its two map
/// allocations per event.
struct Micro {
  std::uint64_t events = 0;
  double wall_seconds = 0.0;
  double events_per_sec = 0.0;
};

Micro run_micro(sim::Engine::QueueImpl impl, std::uint64_t total_events,
                std::size_t live, std::uint64_t seed) {
  sim::Engine engine(impl);
  Rng rng(seed);
  std::uint64_t fired = 0;
  std::vector<sim::EventId> cancellable;

  std::function<void()> hold = [&] {
    ++fired;
    if (fired + cancellable.size() < total_events) {
      engine.schedule_after(rng.exponential(1.0), hold);
      // A slice of events is scheduled and later cancelled, as keep-alive
      // timers are in the end-to-end cell.
      if ((fired & 7u) == 0u)
        cancellable.push_back(engine.schedule_after(rng.uniform(1.0, 30.0), [] {}));
      if (cancellable.size() >= 64) {
        for (sim::EventId id : cancellable) engine.cancel(id);
        cancellable.clear();
      }
    }
  };

  const double t0 = now_seconds();
  for (std::size_t i = 0; i < live; ++i) engine.schedule_after(rng.exponential(1.0), hold);
  engine.run();
  Micro m;
  m.events = engine.stats().fired;
  m.wall_seconds = now_seconds() - t0;
  m.events_per_sec =
      m.wall_seconds > 0.0 ? static_cast<double>(m.events) / m.wall_seconds : 0.0;
  return m;
}

json::Value end_to_end_json(const EndToEnd& r, bool with_calendar) {
  json::Value v = json::Value::object();
  v["wall_seconds"] = r.wall_seconds;
  v["events_per_sec"] = r.events_per_sec;
  v["peak_rss_mb"] = r.rss_after_mb;
  if (with_calendar) {
    json::Value cs = json::Value::object();
    cs["resizes"] = r.cal.resizes;
    cs["direct_searches"] = r.cal.direct_searches;
    cs["buckets"] = static_cast<std::uint64_t>(r.cal.buckets);
    cs["peak_live"] = static_cast<std::uint64_t>(r.cal.peak_live);
    v["calendar_stats"] = cs;
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  CellConfig cc;
  std::uint64_t micro_events = 2'000'000;
  std::size_t micro_live = 10'000;
  std::string out_path = "BENCH_throughput.json";

  for (int i = 1; i < argc; ++i) {
    // --duration and the other harness knobs are the shared bench flags.
    if (bench::consume_shared_flag(argc, argv, i)) continue;
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_throughput: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--apps") == 0)
      cc.apps = static_cast<std::size_t>(std::atol(next("--apps")));
    else if (std::strcmp(argv[i], "--machines") == 0)
      cc.machines = static_cast<std::size_t>(std::atol(next("--machines")));
    else if (std::strcmp(argv[i], "--nodes") == 0)
      cc.nodes_per_app = static_cast<std::size_t>(std::atol(next("--nodes")));
    else if (std::strcmp(argv[i], "--events") == 0)
      micro_events = static_cast<std::uint64_t>(std::atoll(next("--events")));
    else if (std::strcmp(argv[i], "--out") == 0)
      out_path = next("--out");
    else {
      std::fprintf(stderr, "bench_throughput: unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  cc.duration = bench::bench_duration(1800.0);

  // One trace set shared by both impls: identical arrivals in, identical
  // trajectory out.
  std::vector<workload::Trace> traces;
  traces.reserve(cc.apps);
  long long arrivals_total = 0;
  {
    Rng root(cc.seed);
    const std::vector<std::string> wl = bench::workload_names();
    for (std::size_t i = 0; i < cc.apps; ++i) {
      Rng child = root.fork(i + 1);
      const workload::TraceOptions topt =
          workload::preset_for_workload(wl[i % wl.size()], cc.duration);
      traces.push_back(workload::generate_trace(topt, child));
      arrivals_total += static_cast<long long>(traces.back().arrivals.size());
    }
  }
  std::fprintf(stderr,
               "bench_throughput: %zu apps x %zu nodes on %zu machines, %.0f s "
               "traces, %lld arrivals\n",
               cc.apps, cc.nodes_per_app, cc.machines, cc.duration, arrivals_total);

  const int lane_threads = bench::bench_args().lane_threads;
  const int lane_counts[] = {1, 2, 4, 8};
  std::vector<EndToEnd> sharded;
  for (const int lanes : lane_counts) {
    sharded.push_back(run_isolated<EndToEnd>(
        [&] { return run_lanes(lanes, lane_threads, cc, traces); }));
    std::fprintf(stderr, "bench_throughput: [sharded lanes=%d] %.2fs, %.0f events/s\n",
                 lanes, sharded.back().wall_seconds, sharded.back().events_per_sec);
  }

  const EndToEnd cal = run_isolated<EndToEnd>(
      [&] { return run_cell(sim::Engine::QueueImpl::Calendar, cc, traces); });
  std::fprintf(stderr, "bench_throughput: [e2e %s] %.2fs, %.0f events/s\n",
               impl_name(sim::Engine::QueueImpl::Calendar), cal.wall_seconds,
               cal.events_per_sec);
  const EndToEnd heap = run_isolated<EndToEnd>(
      [&] { return run_cell(sim::Engine::QueueImpl::BinaryHeap, cc, traces); });
  std::fprintf(stderr, "bench_throughput: [e2e %s] %.2fs, %.0f events/s\n",
               impl_name(sim::Engine::QueueImpl::BinaryHeap), heap.wall_seconds,
               heap.events_per_sec);

  // Correctness gate: the queue impl must be unobservable in the trajectory.
  if (cal.scheduled != heap.scheduled || cal.fired != heap.fired ||
      cal.cancelled != heap.cancelled || cal.completed != heap.completed) {
    std::fprintf(stderr,
                 "bench_throughput: IMPL DIVERGENCE calendar(%llu/%llu/%llu/%lld) "
                 "vs heap(%llu/%llu/%llu/%lld)\n",
                 static_cast<unsigned long long>(cal.scheduled),
                 static_cast<unsigned long long>(cal.fired),
                 static_cast<unsigned long long>(cal.cancelled), cal.completed,
                 static_cast<unsigned long long>(heap.scheduled),
                 static_cast<unsigned long long>(heap.fired),
                 static_cast<unsigned long long>(heap.cancelled), heap.completed);
    return 1;
  }

  // Legacy-equality gate: one lane is the monolithic cell — streaming
  // injection must be unobservable in the trajectory counts.
  const EndToEnd& one = sharded.front();
  if (one.scheduled != cal.scheduled || one.fired != cal.fired ||
      one.cancelled != cal.cancelled || one.completed != cal.completed) {
    std::fprintf(stderr,
                 "bench_throughput: SHARDING DIVERGENCE lanes=1(%llu/%llu/%llu/%lld) "
                 "vs monolithic(%llu/%llu/%llu/%lld)\n",
                 static_cast<unsigned long long>(one.scheduled),
                 static_cast<unsigned long long>(one.fired),
                 static_cast<unsigned long long>(one.cancelled), one.completed,
                 static_cast<unsigned long long>(cal.scheduled),
                 static_cast<unsigned long long>(cal.fired),
                 static_cast<unsigned long long>(cal.cancelled), cal.completed);
    return 1;
  }

  const Micro mcal = run_isolated<Micro>([&] {
    return run_micro(sim::Engine::QueueImpl::Calendar, micro_events, micro_live, cc.seed);
  });
  const Micro mheap = run_isolated<Micro>([&] {
    return run_micro(sim::Engine::QueueImpl::BinaryHeap, micro_events, micro_live, cc.seed);
  });
  std::fprintf(stderr,
               "bench_throughput: [micro] calendar %.0f events/s, heap %.0f "
               "events/s (%.2fx)\n",
               mcal.events_per_sec, mheap.events_per_sec,
               mheap.events_per_sec > 0.0 ? mcal.events_per_sec / mheap.events_per_sec
                                          : 0.0);

  json::Value doc = json::Value::object();
  doc["bench"] = "throughput";
  {
    json::Value cfg = json::Value::object();
    cfg["apps"] = static_cast<std::uint64_t>(cc.apps);
    cfg["machines"] = static_cast<std::uint64_t>(cc.machines);
    cfg["nodes_per_app"] = static_cast<std::uint64_t>(cc.nodes_per_app);
    cfg["trace_duration_s"] = cc.duration;
    cfg["seed"] = cc.seed;
    cfg["micro_events"] = micro_events;
    cfg["micro_live"] = static_cast<std::uint64_t>(micro_live);
    doc["config"] = cfg;
  }
  {
    // Byte-stable for a given config: pure simulation-domain counts, equal
    // across queue impls by the gate above.
    json::Value det = json::Value::object();
    det["arrivals_total"] = arrivals_total;
    det["requests_submitted"] = cal.submitted;
    det["requests_completed"] = cal.completed;
    det["events_scheduled"] = cal.scheduled;
    det["events_fired"] = cal.fired;
    det["events_cancelled"] = cal.cancelled;
    det["identical_across_impls"] = true;
    doc["deterministic"] = det;
  }
  doc["calendar"] = end_to_end_json(cal, /*with_calendar=*/true);
  doc["binary_heap"] = end_to_end_json(heap, /*with_calendar=*/false);
  {
    // The intra-cell sharding axis (DESIGN.md §14). lanes=1 is count-gated
    // against the monolithic run above; lanes>1 partitions the fleet, so
    // its counts describe a different (but equally deterministic) cell and
    // are recorded alongside the measurements.
    json::Value sh = json::Value::object();
    sh["lane_threads"] = static_cast<long long>(lane_threads);
    json::Value rows = json::Value::array();
    for (std::size_t i = 0; i < sharded.size(); ++i) {
      const EndToEnd& r = sharded[i];
      json::Value row = json::Value::object();
      row["lanes"] = static_cast<long long>(lane_counts[i]);
      row["wall_seconds"] = r.wall_seconds;
      row["events_per_sec"] = r.events_per_sec;
      row["peak_rss_mb"] = r.rss_after_mb;
      row["events_scheduled"] = r.scheduled;
      row["events_fired"] = r.fired;
      row["events_cancelled"] = r.cancelled;
      row["requests_completed"] = r.completed;
      rows.push_back(std::move(row));
    }
    sh["lanes"] = std::move(rows);
    sh["speedup_lanes8_vs_monolithic"] =
        cal.events_per_sec > 0.0 ? sharded.back().events_per_sec / cal.events_per_sec
                                 : 0.0;
    sh["note"] =
        "streaming per-window arrival injection bounds the live event set; each "
        "lane runs to the horizon on one of lane_threads threads, so a speedup "
        "beyond the lanes=1 row needs as many cores as populated lanes";
    doc["sharded"] = std::move(sh);
  }
  {
    json::Value micro = json::Value::object();
    json::Value a = json::Value::object();
    a["events"] = mcal.events;
    a["wall_seconds"] = mcal.wall_seconds;
    a["events_per_sec"] = mcal.events_per_sec;
    micro["calendar"] = a;
    json::Value b = json::Value::object();
    b["events"] = mheap.events;
    b["wall_seconds"] = mheap.wall_seconds;
    b["events_per_sec"] = mheap.events_per_sec;
    micro["binary_heap"] = b;
    micro["speedup"] =
        mheap.events_per_sec > 0.0 ? mcal.events_per_sec / mheap.events_per_sec : 0.0;
    doc["micro"] = micro;
  }
  doc["e2e_speedup"] =
      heap.events_per_sec > 0.0 ? cal.events_per_sec / heap.events_per_sec : 0.0;
  doc["peak_rss_mb"] = peak_rss_mb();
  {
    // Self-profiler breakdown (DESIGN.md §15). Wall-clock data: stable in
    // shape, not in values. The headline `coverage` is the calendar e2e
    // cell's Σ exclusive / root — the root scope brackets the whole cell,
    // so it is 1.0 by construction (the bench contract demands >= 0.9).
    // Sharded cells can exceed 1.0: lane wall time on worker threads
    // overlaps the coordinator's wait for the lanes.
    json::Value pr = json::Value::object();
    pr["coverage"] = prof::snapshot_to_json(cal.profile).get("coverage", 0.0);
    pr["calendar"] = prof::snapshot_to_json(cal.profile);
    pr["binary_heap"] = prof::snapshot_to_json(heap.profile);
    json::Value rows = json::Value::array();
    for (std::size_t i = 0; i < sharded.size(); ++i) {
      json::Value row = prof::snapshot_to_json(sharded[i].profile);
      row["lanes"] = static_cast<long long>(lane_counts[i]);
      rows.push_back(std::move(row));
    }
    pr["sharded"] = std::move(rows);
    doc["profile"] = std::move(pr);
  }

  json::save_file(doc, out_path);
  std::fprintf(stderr, "bench_throughput: wrote %s\n", out_path.c_str());

  if (!bench::bench_args().report_out.empty()) {
    // Profile-only HTML report through the generic sweep template: one
    // "cell" per measured configuration, no time series.
    json::Value payload = json::Value::object();
    payload["title"] = std::string("bench_throughput self-profile");
    payload["generator"] = std::string("bench_throughput");
    json::Value cells = json::Value::array();
    auto add = [&](const std::string& label, const prof::Snapshot& s) {
      json::Value cell = json::Value::object();
      cell["label"] = label;
      cell["policy"] = std::string("bench-keepwarm");
      cell["app"] = std::string("synthetic-pipeline");
      cell["seed"] = static_cast<long long>(cc.seed);
      cell["lanes"] = 1LL;
      cell["profile"] = prof::snapshot_to_json(s);
      cells.push_back(std::move(cell));
    };
    add("e2e calendar", cal.profile);
    add("e2e binary_heap", heap.profile);
    for (std::size_t i = 0; i < sharded.size(); ++i)
      add("sharded lanes=" + std::to_string(lane_counts[i]), sharded[i].profile);
    payload["cells"] = std::move(cells);
    std::ofstream os(bench::bench_args().report_out, std::ios::binary);
    if (!os.good()) {
      std::fprintf(stderr, "bench_throughput: cannot write %s\n",
                   bench::bench_args().report_out.c_str());
      return 1;
    }
    os << exp::render_report(payload);
    std::fprintf(stderr, "bench_throughput: wrote %s\n",
                 bench::bench_args().report_out.c_str());
  }
  return 0;
}
