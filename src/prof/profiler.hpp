#pragma once

/// Runtime self-profiler: where does *wall* time go when a cell runs?
///
/// The simulator's determinism contract bans wall-clock reads everywhere near
/// the trajectory, so this subsystem is the one sanctioned quarantine zone:
/// a single clock read lives in prof::now_ns() (profiler.cpp, detlint-allowed
/// with a reason) and everything else works on the opaque tick counts it
/// returns. Profiler output is wall-clock data by definition and therefore
/// NEVER flows into golden-compared artifacts — it is written only to the
/// explicitly requested `--profile-out` / `--report-out` destinations and the
/// `profile` section of BENCH_throughput.json.
///
/// Model: an RAII ScopeTimer pushes a frame per instrumented site
/// (sim::Engine::run_until, event-queue ops, window ticks, dispatch,
/// container lifecycle, the policy solver, sharded lane window steps and the
/// coordinator's wait for the lanes). Frames nest; on pop the child's wall time is charged to the
/// parent's "children" bucket, so for every site we report
///   inclusive_ns  - total wall time with the site anywhere on the stack,
///   exclusive_ns  - inclusive minus instrumented children,
/// and the exclusive times of all sites sum *exactly* to the root's
/// inclusive time whenever a root scope (Site::CellRun) brackets the run —
/// that is the ">= 90% of measured wall time" bench invariant, by
/// construction rather than by luck.
///
/// A Profiler is deliberately NOT thread-safe: each lane owns a private
/// Profiler and the coordinator merges them once every lane has finished
/// (merge() keeps a per-lane breakdown). Lanes run on the coordinator's own
/// thread nest their profilers in the coordinator's (nest_in), so the
/// equality above holds for them too; lanes on worker threads overlap the
/// coordinator's wait and push the sum past the root. Everything is
/// zero-overhead when the `prof::Profiler*` hanging off PlatformOptions /
/// RunnerOptions is null: ScopeTimer degenerates to a single pointer test.
///
/// The profiler also surfaces the simulator's dark internal stats
/// (live events, EngineStats) as *sampled counters*: deterministic
/// (sim_time, value) pairs recorded every 2^14 fired events, exported as
/// Perfetto "C" counter tracks that line up with the sim-time trace.

#include <array>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/check.hpp"
#include "common/json.hpp"

namespace smiless::prof {

/// The one quarantined wall-clock read (monotonic, ns). Defined in
/// profiler.cpp next to its lint suppression and the reason for it.
std::uint64_t now_ns();

/// Instrumented scope catalog. Adding a site = one enum entry + one name.
enum class Site : int {
  CellRun = 0,     ///< root: deploy -> run -> finalize -> registry mirror
  EngineRun,       ///< sim::Engine::run_until dispatch loop
  EngineSchedule,  ///< event-queue insert (Engine::schedule_at)
  EngineCancel,    ///< event-queue cancel (Engine::cancel)
  GatewayWindow,   ///< Platform::close_window: one app's window (minus the solver)
  PolicyWindow,    ///< Policy::on_window solver call inside the tick
  Dispatch,        ///< Platform::dispatch (queues -> batches)
  PoolCreate,      ///< Platform::create_instance (starts a cold init)
  PoolBatchDone,   ///< Platform::on_batch_done (completion bookkeeping)
  LaneStep,        ///< ShardedPlatform: one window of one lane's run
  ShardBarrier,    ///< ShardedPlatform: coordinator's one wait for all lanes
  Finalize,        ///< Platform/ShardedPlatform finalize + telemetry merge
  kCount
};

inline constexpr std::size_t kSiteCount = static_cast<std::size_t>(Site::kCount);

const char* site_name(Site s);

/// Sampled internal counters (deterministic sim-time series).
enum class Counter : int {
  EngineLive = 0,          ///< events pending in the queue
  EngineScheduled,         ///< EngineStats::scheduled (monotone)
  EngineFired,             ///< EngineStats::fired (monotone)
  EngineCancelled,         ///< EngineStats::cancelled (monotone)
  kCount
};

inline constexpr std::size_t kCounterCount = static_cast<std::size_t>(Counter::kCount);

const char* counter_name(Counter c);

/// Per-site aggregate. POD so Snapshot stays trivially copyable (the bench
/// ships snapshots through a fork pipe).
struct SiteAgg {
  std::uint64_t count = 0;
  std::uint64_t inclusive_ns = 0;
  std::uint64_t exclusive_ns = 0;
};

/// One sampled counter observation. `sim_t` is simulation seconds; `lane`
/// is the owning lane (-1 = monolithic / coordinator).
struct CounterSample {
  double sim_t = 0.0;
  std::int32_t counter = 0;
  std::int32_t lane = -1;
  double value = 0.0;
};

/// Trivially-copyable totals for cross-process transport (bench_throughput
/// measures in forked children and pipes results back as raw bytes).
struct Snapshot {
  std::array<SiteAgg, kSiteCount> sites{};
  /// Root wall time (Site::CellRun inclusive). 0 when no root scope ran.
  std::uint64_t root_ns = 0;
};
static_assert(std::is_trivially_copyable_v<Snapshot>);

/// {"sites", "total_ms", "coverage"} for a transported Snapshot — the
/// subset of Profiler::to_json() that survives the fork pipe.
json::Value snapshot_to_json(const Snapshot& s);

class Profiler {
 public:
  /// `lane` tags this profiler's counter samples and its slot in a merged
  /// per-lane breakdown; -1 means "monolithic / coordinator".
  explicit Profiler(int lane = -1) : lane_(lane) {}

  int lane() const { return lane_; }

  /// Scope stack (driven by ScopeTimer; callable directly for irregular
  /// scopes). Max nesting depth is fixed: the instrumented call graph is
  /// ~6 deep, 64 leaves room for future sites.
  void enter(Site s) {
    SMILESS_CHECK_MSG(depth_ < kMaxDepth, "profiler scope stack overflow");
    frames_[depth_++] = Frame{s, now_ns(), 0};
  }

  void leave() {
    SMILESS_CHECK_MSG(depth_ > 0, "profiler leave without enter");
    const Frame f = frames_[--depth_];
    const std::uint64_t t1 = now_ns();
    const std::uint64_t dt = t1 >= f.t0 ? t1 - f.t0 : 0;
    SiteAgg& a = sites_[static_cast<std::size_t>(f.site)];
    ++a.count;
    a.inclusive_ns += dt;
    a.exclusive_ns += dt >= f.child_ns ? dt - f.child_ns : 0;
    if (depth_ > 0) {
      frames_[depth_ - 1].child_ns += dt;
    } else if (outer_ != nullptr && outer_->depth_ > 0) {
      outer_->frames_[outer_->depth_ - 1].child_ns += dt;
    }
  }

  /// Nest this profiler inside `outer`, which must be driven from the same
  /// thread: each of this profiler's outermost scopes is then charged as
  /// child time to `outer`'s innermost open scope. A lane run on the
  /// coordinator's thread nests its private profiler this way, so once the
  /// two merge its time is counted once and Σ exclusive still equals the
  /// root. Null (the default) nests nowhere.
  void nest_in(Profiler* outer) { outer_ = outer; }

  /// Record one deterministic (sim_t, value) counter observation.
  void sample(double sim_t, Counter c, double value) {
    samples_.push_back(CounterSample{sim_t, static_cast<std::int32_t>(c), lane_, value});
  }

  /// Fold another (idle) profiler into this one: site totals add, counter
  /// samples concatenate, and `other`'s totals are also filed under its
  /// lane id so a merged cell keeps a per-lane breakdown. Associative.
  void merge(const Profiler& other);

  const std::array<SiteAgg, kSiteCount>& sites() const { return sites_; }
  const std::vector<CounterSample>& samples() const { return samples_; }

  /// Per-lane breakdown accumulated by merge(), ordered by lane id.
  struct LaneAgg {
    int lane = -1;
    std::array<SiteAgg, kSiteCount> sites{};
  };
  const std::vector<LaneAgg>& lanes() const { return lanes_; }

  /// Root wall time: Site::CellRun inclusive ns (0 if no root scope ran).
  std::uint64_t root_ns() const {
    return sites_[static_cast<std::size_t>(Site::CellRun)].inclusive_ns;
  }

  Snapshot snapshot() const;

  /// {"sites": [...], "lanes": [...], "counters": [...], "total_ms",
  ///  "coverage"} — see DESIGN.md §15 for the schema. Wall-clock data:
  /// written only to explicitly requested destinations.
  json::Value to_json() const;

  /// Chrome/Perfetto trace events: one "C" counter track per (counter,
  /// lane) on sim-time microseconds, plus per-site summary "X" slices on a
  /// dedicated wall-profile pid. Meant to be loaded alongside (or appended
  /// to) the sim-time trace from --trace-out.
  json::Value perfetto_events(int pid) const;

 private:
  struct Frame {
    Site site = Site::CellRun;
    std::uint64_t t0 = 0;
    std::uint64_t child_ns = 0;
  };
  static constexpr std::size_t kMaxDepth = 64;

  int lane_ = -1;
  Profiler* outer_ = nullptr;  ///< see nest_in(); not owned
  std::array<Frame, kMaxDepth> frames_{};
  std::size_t depth_ = 0;
  std::array<SiteAgg, kSiteCount> sites_{};
  std::vector<LaneAgg> lanes_;
  std::vector<CounterSample> samples_;
};

/// RAII scope timer. A null profiler makes both ends a single branch —
/// that is the whole zero-overhead-when-off story.
class ScopeTimer {
 public:
  ScopeTimer(Profiler* p, Site s) : p_(p) {
    if (p_ != nullptr) p_->enter(s);
  }
  ~ScopeTimer() {
    if (p_ != nullptr) p_->leave();
  }
  ScopeTimer(const ScopeTimer&) = delete;
  ScopeTimer& operator=(const ScopeTimer&) = delete;

 private:
  Profiler* p_;
};

}  // namespace smiless::prof
