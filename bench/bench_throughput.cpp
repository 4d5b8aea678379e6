// Simulator throughput baseline: one large colocated cell — hundreds of
// machines, thousands of DAG applications, a multi-hour Poisson + burst
// trace per app — driven end-to-end through ShardedPlatform's lane loop at
// lanes 1/2/4/8 (streaming per-window arrival injection), plus a pure-queue
// hold-model microbench that runs the engine's event queue and its
// executable specification (sim::ReferenceQueue, the binary heap +
// std::map pair) on the same schedule. Records requests/s (the headline:
// events/s also rises when each request costs more events), events and
// cancels per request, events/s, wall time, peak RSS and EngineStats into
// BENCH_throughput.json (see DESIGN.md §13–14).
//
// Correctness gate: the two queues must fire the same (time, schedule
// order) sequence in the micro, or the bench exits 1. Each lane count is a
// different cell — the fleet is partitioned — so its counts are reported
// per row; the `deterministic` section is the lanes=1 row.
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

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "apps/catalog.hpp"
#include "bench/bench_common.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "prof/profiler.hpp"
#include "serverless/plan.hpp"
#include "serverless/platform_view.hpp"
#include "serverless/policy.hpp"
#include "serverless/sharding.hpp"
#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/reference_queue.hpp"
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
/// exercise the keep-alive reap path (a reused instance's pending reap timer
/// re-arms at its new reap time when it fires) without the full SMIless
/// optimizer dominating the profile.
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
  prof::Snapshot profile;  // self-profiler wall-time breakdown

  // Requests are the work; events are its cost, so events/s alone rises
  // when a change makes each request take more events.
  double requests_per_sec() const {
    return wall_seconds > 0.0 ? static_cast<double>(submitted) / wall_seconds : 0.0;
  }
  double events_per_request() const {
    return submitted > 0 ? static_cast<double>(fired) / static_cast<double>(submitted) : 0.0;
  }
  double cancels_per_request() const {
    return submitted > 0 ? static_cast<double>(cancelled) / static_cast<double>(submitted) : 0.0;
  }
};

/// The cell through ShardedPlatform: apps partitioned into lanes, arrivals
/// injected one window at a time. With more lanes the fleet is partitioned
/// too, so each lane count is its own (equally deterministic) cell.
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
/// pop the earliest and schedule a replacement at now + exp(1), rounded up
/// to a 1 ms grid so that same-timestamp events are common (as window ticks
/// are in the end-to-end cell) and the FIFO tie-break is exercised. Drives
/// the queue directly, with the Engine's clock bookkeeping inline, so it
/// isolates schedule/pop/cancel cost from platform callback work; with
/// thousands pending this is where the reference pays its two map
/// allocations per event. `fire_order` hashes the (time, schedule order)
/// sequence the queue fired — the two queues mint different ids — so two
/// queues can be compared without storing it.
struct Micro {
  std::uint64_t events = 0;
  std::uint64_t fire_order = 0;
  double wall_seconds = 0.0;
  double events_per_sec = 0.0;
};

/// splitmix64 finalizer: the fire-order hash step.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// sim::ReferenceQueue minting ids as a model engine does: 1, 2, 3, ...
/// in schedule order, so the micro drives it like sim::EventQueue.
class NumberedReferenceQueue {
 public:
  sim::EventId schedule(SimTime t, std::function<void()> cb) {
    queue_.schedule(t, next_id_, std::move(cb));
    return next_id_++;
  }
  bool cancel(sim::EventId id) { return queue_.cancel(id); }
  bool pop_due(SimTime end, SimTime* t, sim::EventId* id, std::function<void()>* cb) {
    return queue_.pop_due(end, t, id, cb);
  }

 private:
  sim::ReferenceQueue queue_;
  sim::EventId next_id_ = 1;
};

template <typename Queue>
Micro run_micro(std::uint64_t total_events, std::size_t live, std::uint64_t seed) {
  Queue queue;
  Rng rng(seed);
  SimTime now = 0.0;
  std::uint64_t scheduled = 0;
  std::uint64_t fired = 0;
  std::vector<sim::EventId> cancellable;
  Micro m;
  // Every event carries its schedule order; firing one folds (now, order)
  // into the fire-order hash, and a hold event then schedules its successor.
  std::function<void(std::uint64_t, bool)> fire;
  const auto schedule = [&](SimTime delay, bool holds) {
    const std::uint64_t order = ++scheduled;
    return queue.schedule(std::ceil((now + delay) * 1e3) / 1e3,
                          [&fire, order, holds] { fire(order, holds); });
  };

  fire = [&](std::uint64_t order, bool holds) {
    ++m.events;
    m.fire_order = mix(mix(m.fire_order ^ std::bit_cast<std::uint64_t>(now)) ^ order);
    if (!holds) return;
    ++fired;
    if (fired + cancellable.size() < total_events) {
      schedule(rng.exponential(1.0), true);
      // A slice of events is scheduled and later cancelled, as pre-warm and
      // keep-alive timers are when a plan changes or a machine goes down.
      if ((fired & 7u) == 0u) cancellable.push_back(schedule(rng.uniform(1.0, 30.0), false));
      if (cancellable.size() >= 64) {
        for (sim::EventId id : cancellable) queue.cancel(id);
        cancellable.clear();
      }
    }
  };

  const double t0 = now_seconds();
  for (std::size_t i = 0; i < live; ++i) schedule(rng.exponential(1.0), true);
  SimTime t = 0.0;
  sim::EventId id = 0;
  std::function<void()> cb;
  while (queue.pop_due(std::numeric_limits<SimTime>::max(), &t, &id, &cb)) {
    now = t;
    cb();
    cb = nullptr;
  }
  m.wall_seconds = now_seconds() - t0;
  m.events_per_sec =
      m.wall_seconds > 0.0 ? static_cast<double>(m.events) / m.wall_seconds : 0.0;
  return m;
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
    // A count: a whole number >= 1, or exit 2 naming the flag.
    const auto count = [&](const char* flag) {
      const auto v = bench::flag_number<std::uint64_t>(argv[0], flag, next(flag));
      if (v < 1) {
        std::fprintf(stderr, "bench_throughput: %s must be >= 1\n", flag);
        std::exit(2);
      }
      return v;
    };
    if (std::strcmp(argv[i], "--apps") == 0)
      cc.apps = count("--apps");
    else if (std::strcmp(argv[i], "--machines") == 0)
      cc.machines = count("--machines");
    else if (std::strcmp(argv[i], "--nodes") == 0)
      cc.nodes_per_app = count("--nodes");
    else if (std::strcmp(argv[i], "--events") == 0)
      micro_events = count("--events");
    else if (std::strcmp(argv[i], "--out") == 0)
      out_path = next("--out");
    else {
      std::fprintf(stderr, "bench_throughput: unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  cc.duration = bench::bench_duration(1800.0);

  // Every populated lane needs a machine of its own slice (ShardedPlatform
  // checks it mid-run, in the forked child); reject a smaller fleet here.
  const int lane_counts[] = {1, 2, 4, 8};
  for (const int lanes : lane_counts) {
    std::vector<char> populated(static_cast<std::size_t>(lanes), 0);
    for (std::size_t i = 0; i < cc.apps; ++i)
      populated[static_cast<std::size_t>(serverless::ShardedPlatform::lane_for(i, lanes))] = 1;
    const auto need = static_cast<std::size_t>(std::count(populated.begin(), populated.end(), 1));
    if (cc.machines < need) {
      std::fprintf(stderr,
                   "bench_throughput: --machines must be >= %zu: the lanes=%d row spreads "
                   "--apps %zu over %zu lanes, each needing a machine\n",
                   need, lanes, cc.apps, need);
      return 2;
    }
  }

  // One trace set shared by every lane count.
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
  std::vector<EndToEnd> sharded;
  for (const int lanes : lane_counts) {
    sharded.push_back(run_isolated<EndToEnd>(
        [&] { return run_lanes(lanes, lane_threads, cc, traces); }));
    const EndToEnd& r = sharded.back();
    std::fprintf(stderr,
                 "bench_throughput: [sharded lanes=%d] %.0f requests/s (%.2fs; %.2f events "
                 "and %.4f cancels per request, %.0f events/s)\n",
                 lanes, r.requests_per_sec(), r.wall_seconds, r.events_per_request(),
                 r.cancels_per_request(), r.events_per_sec);
  }

  const Micro mq = run_isolated<Micro>(
      [&] { return run_micro<sim::EventQueue>(micro_events, micro_live, cc.seed); });
  const Micro mref = run_isolated<Micro>(
      [&] { return run_micro<NumberedReferenceQueue>(micro_events, micro_live, cc.seed); });
  std::fprintf(stderr,
               "bench_throughput: [micro] event queue %.0f events/s, reference %.0f "
               "events/s (%.2fx)\n",
               mq.events_per_sec, mref.events_per_sec,
               mref.events_per_sec > 0.0 ? mq.events_per_sec / mref.events_per_sec : 0.0);

  // Correctness gate: the engine's queue must fire exactly what its
  // executable specification fires.
  if (mq.events != mref.events || mq.fire_order != mref.fire_order) {
    std::fprintf(stderr,
                 "bench_throughput: QUEUE DIVERGENCE event queue fired %llu events (order "
                 "%016llx), reference %llu (order %016llx)\n",
                 static_cast<unsigned long long>(mq.events),
                 static_cast<unsigned long long>(mq.fire_order),
                 static_cast<unsigned long long>(mref.events),
                 static_cast<unsigned long long>(mref.fire_order));
    return 1;
  }

  const EndToEnd& one = sharded.front();
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
    // Byte-stable for a given config: the lanes=1 row's simulation-domain
    // counts.
    json::Value det = json::Value::object();
    det["arrivals_total"] = arrivals_total;
    det["requests_submitted"] = one.submitted;
    det["requests_completed"] = one.completed;
    det["events_scheduled"] = one.scheduled;
    det["events_fired"] = one.fired;
    det["events_cancelled"] = one.cancelled;
    det["events_per_request"] = one.events_per_request();
    det["cancels_per_request"] = one.cancels_per_request();
    doc["deterministic"] = det;
  }
  {
    // The intra-cell sharding axis (DESIGN.md §14). lanes>1 partitions the
    // fleet, so each row's counts describe a different (but equally
    // deterministic) cell and are recorded alongside the measurements.
    json::Value sh = json::Value::object();
    sh["lane_threads"] = static_cast<long long>(lane_threads);
    json::Value rows = json::Value::array();
    for (std::size_t i = 0; i < sharded.size(); ++i) {
      const EndToEnd& r = sharded[i];
      json::Value row = json::Value::object();
      row["lanes"] = static_cast<long long>(lane_counts[i]);
      row["wall_seconds"] = r.wall_seconds;
      row["requests_per_sec"] = r.requests_per_sec();
      row["events_per_sec"] = r.events_per_sec;
      row["events_per_request"] = r.events_per_request();
      row["cancels_per_request"] = r.cancels_per_request();
      row["peak_rss_mb"] = r.rss_after_mb;
      row["events_scheduled"] = r.scheduled;
      row["events_fired"] = r.fired;
      row["events_cancelled"] = r.cancelled;
      row["requests_completed"] = r.completed;
      rows.push_back(std::move(row));
    }
    sh["lanes"] = std::move(rows);
    sh["speedup_lanes8_vs_lanes1"] =
        one.events_per_sec > 0.0 ? sharded.back().events_per_sec / one.events_per_sec : 0.0;
    sh["note"] =
        "streaming per-window arrival injection bounds the live event set; each "
        "lane runs to the horizon on one of lane_threads threads, so a speedup "
        "beyond the lanes=1 row needs as many cores as populated lanes";
    doc["sharded"] = std::move(sh);
  }
  {
    json::Value micro = json::Value::object();
    const auto section = [](const Micro& m) {
      json::Value v = json::Value::object();
      v["events"] = m.events;
      v["wall_seconds"] = m.wall_seconds;
      v["events_per_sec"] = m.events_per_sec;
      return v;
    };
    micro["event_queue"] = section(mq);
    micro["reference_queue"] = section(mref);
    micro["identical_fire_order"] = true;  // gated above
    micro["speedup"] =
        mref.events_per_sec > 0.0 ? mq.events_per_sec / mref.events_per_sec : 0.0;
    doc["micro"] = micro;
  }
  doc["peak_rss_mb"] = peak_rss_mb();
  {
    // Self-profiler breakdown (DESIGN.md §15). Wall-clock data: stable in
    // shape, not in values. The headline `coverage` is the lanes=1 cell's
    // Σ exclusive / root — its lone lane runs on the calling thread under
    // the root scope, so it is 1.0 by construction. Cells with several
    // lanes can exceed 1.0: lane wall time on worker threads overlaps the
    // coordinator's wait for the lanes.
    json::Value pr = json::Value::object();
    pr["coverage"] = prof::snapshot_to_json(one.profile).get("coverage", 0.0);
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
    auto add = [&](const std::string& label, int lanes, const prof::Snapshot& s) {
      json::Value cell = json::Value::object();
      cell["label"] = label;
      cell["policy"] = std::string("bench-keepwarm");
      cell["app"] = std::string("synthetic-pipeline");
      cell["seed"] = static_cast<long long>(cc.seed);
      cell["lanes"] = static_cast<long long>(lanes);
      cell["profile"] = prof::snapshot_to_json(s);
      cells.push_back(std::move(cell));
    };
    for (std::size_t i = 0; i < sharded.size(); ++i)
      add("sharded lanes=" + std::to_string(lane_counts[i]), lane_counts[i],
          sharded[i].profile);
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
