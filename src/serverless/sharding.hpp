#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "apps/app.hpp"
#include "cluster/cluster.hpp"
#include "faults/fault_injector.hpp"
#include "perfmodel/hardware.hpp"
#include "serverless/platform.hpp"
#include "sim/engine.hpp"

namespace smiless::obs {
class Telemetry;
}  // namespace smiless::obs

namespace smiless::sim {
class Clock;
}  // namespace smiless::sim

namespace smiless::serverless {

/// Knobs for one sharded cell (DESIGN.md §14).
struct ShardOptions {
  /// Number of lanes apps are hash-partitioned into. 1 degenerates to a
  /// single lane holding every app over the whole cluster.
  int lanes = 1;

  /// Threads running lanes, each lane to the horizon on one thread. 1 runs
  /// lanes one after another on the calling thread; 0 picks hardware
  /// concurrency (capped at the populated lane count). The choice affects
  /// wall-clock only — every artifact is byte-identical at any thread
  /// count. Lanes never run on a policy solver pool (a policy blocking on
  /// its own pool would deadlock).
  int lane_threads = 0;

  std::uint64_t seed = 42;

  /// Fleet divided among the *populated* lanes (contiguous slices, remainder
  /// machines to the earliest lanes). A single populated lane gets the whole
  /// fleet, which is what makes single-app cells invariant in `lanes`.
  std::size_t machines = 8;
  cluster::MachineSpec machine_spec;
  perf::Pricing pricing;

  /// Per-lane platform knobs; `window_seconds` doubles as the period of
  /// each lane's arrival injection. `lane` and the fault/bus pointers are
  /// overwritten per lane.
  PlatformOptions platform;

  /// Cell-wide fault model. Scheduled crashes are filtered to each lane's
  /// machine slice (ids remapped to lane-local); rate-based knobs apply to
  /// every lane, drawn from its private RNG stream.
  faults::FaultSpec faults;

  /// Observability output (non-owning, may be null). A lone populated lane
  /// publishes straight into it: its app ids and machine ids already are
  /// the cell's. With several lanes each records into a private Telemetry,
  /// and at the end of run() the lane streams are merged in deterministic
  /// (t, lane, order) order into this bundle with app/machine ids
  /// translated back to the cell's global spaces.
  obs::Telemetry* telemetry = nullptr;

  /// Merged self-profiler output (non-owning, may be null). Profilers are
  /// not thread-safe, so each lane times itself into a private Profiler
  /// (lane window steps, engine, platform subsystems) while the coordinator
  /// charges its one wait for all lanes here; lane profilers are merged
  /// into this one — keeping a per-lane breakdown — after the run. Lanes
  /// run on the calling thread nest their profilers in this one, so their
  /// time is counted once (DESIGN.md §15). Wall-clock only; the trajectory
  /// and every golden-compared artifact are identical with or without it.
  prof::Profiler* prof = nullptr;
};

/// The cell runner (DESIGN.md §14): every cell — any lane count, discrete-
/// event or paced by a wall clock — runs through this class's lane loop.
///
/// Apps are partitioned by a stable hash of their deploy index; each lane
/// owns a full private world — engine, cluster slice, RNG, fault injector,
/// platform — and each lane runs its own window loop to the horizon on one
/// thread, never waiting for another lane. Because lanes share no mutable
/// state and every merge, done after all lanes have finished, is ordered by
/// (time, lane id, per-lane order), the output is bit-identical at any
/// `lane_threads`, and a cell whose apps land in one lane is invariant in
/// `lanes`: the lone lane inherits the whole cluster, the unmixed seed (the
/// lane seed of app index 0 IS the cell seed) and the full fault spec.
///
/// Arrivals are injected one window at a time, bounding live events in each
/// lane's queue to roughly a window's worth. An arrival at exactly a
/// window's end belongs to the next window, as in workload::Trace::counts.
///
/// Usage: add_app() every app, then run() exactly once, then read the books.
class ShardedPlatform {
 public:
  explicit ShardedPlatform(ShardOptions options);
  ~ShardedPlatform();

  ShardedPlatform(const ShardedPlatform&) = delete;
  ShardedPlatform& operator=(const ShardedPlatform&) = delete;

  /// Register an app with its policy and full arrival sequence (sorted,
  /// absolute sim times). Returns the app's global id. Call before run().
  int add_app(apps::App app, std::shared_ptr<Policy> policy, std::vector<SimTime> arrivals);

  /// Build the lanes, run each to `end`, finalize every lane and, with
  /// several lanes, merge their telemetry. Call exactly once. An exception
  /// from any lane is rethrown once every lane has stopped.
  ///
  /// `clock` (non-owning, may be null) paces the run. Null runs each window
  /// with one Engine::run_until. Non-null waits for each instant inside the
  /// window before firing it, and stops the lane where it stands when the
  /// clock refuses a wait — a stop before the final window skips that
  /// window's tail flush; the run then finalizes as usual. A paced run
  /// needs exactly one populated lane.
  void run(SimTime end, sim::Clock* clock = nullptr);

  /// The stable partition function: lane of the app with deploy index
  /// `global_index` under a `lanes`-way split.
  static int lane_for(std::size_t global_index, int lanes);

  int lane_of(int app) const;

  // --- the merged books (valid after run()) --------------------------------

  const AppMetrics& metrics(int app) const;
  /// Engine counters summed over lanes.
  sim::EngineStats engine_stats() const;
  /// Injector counters summed over lanes.
  faults::FaultStats fault_stats() const;

  int populated_lanes() const;
  const ShardOptions& options() const { return options_; }

 private:
  struct Lane;
  struct PendingApp {
    apps::App app;
    std::shared_ptr<Policy> policy;
    std::vector<SimTime> arrivals;
  };
  struct AppRef {
    int lane_index = -1;  ///< index into lanes_ (populated lanes only)
    AppId local = 0;      ///< the app's id inside its lane's platform
  };

  void build_lanes();
  /// One lane's window loop: inject the window's arrivals, run the engine
  /// to the window's end (pacing each instant against `clock` when it is
  /// set), until `end`.
  void run_lane(Lane& lane, SimTime end, sim::Clock* clock) const;

  ShardOptions options_;
  std::size_t workers_ = 1;  ///< threads running the lanes; 1 = the calling thread
  std::vector<PendingApp> pending_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<AppRef> refs_;
  bool ran_ = false;
};

}  // namespace smiless::serverless
