#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <vector>

#include "baselines/experiment.hpp"
#include "exp/config.hpp"
#include "obs/telemetry.hpp"
#include "prof/profiler.hpp"

namespace smiless::exp {

/// One executed cell: its config, the simulator's books, and how long the
/// cell took on the wall. `wall_seconds` is diagnostic only — no emitter
/// includes it in comparable output, so a sweep's JSON/CSV is a pure
/// function of the grid regardless of thread count or machine load.
struct CellResult {
  ExperimentConfig config;
  baselines::RunResult result;
  double wall_seconds = 0.0;
  /// Engaged iff config.obs asked for collection; holds the cell's event
  /// stream, metric registry and audit log for the artifact writers.
  std::shared_ptr<obs::Telemetry> telemetry;
  /// Engaged iff profiling was requested (config.obs.profile() or
  /// RunnerOptions::profiler); the cell's wall-clock breakdown + sampled
  /// counters. Diagnostic only — never feeds comparable artifacts.
  std::shared_ptr<prof::Profiler> profile;
};

struct RunnerOptions {
  /// Sweep-level parallelism: how many cells run concurrently. 0 means
  /// hardware_concurrency. Results are bit-identical for every value.
  std::size_t threads = 0;

  /// Worker count of the *inner* pool handed to every policy for its
  /// solver fan-out (Strategy Optimizer / Auto-scaler). This pool is
  /// distinct from the sweep pool — a cell blocking on policy futures can
  /// never starve another cell's sub-tasks, so no nesting deadlock exists.
  /// 0 means hardware_concurrency.
  std::size_t policy_threads = 0;

  /// Threads running a sharded cell's lanes, each lane to the horizon on
  /// one thread (serverless::ShardOptions::lane_threads): 0 = hardware
  /// concurrency, 1 = serial. A runner option, not a config field, because
  /// it affects wall-clock only — results are bit-identical for every value.
  int lane_threads = 0;

  /// Print one line per finished cell to stderr.
  bool progress = false;

  /// Optional sweep-wide self-profiler sink (non-owning; must outlive the
  /// run). Non-null forces profiling on for every cell even when its
  /// config.obs doesn't request it; cell profiles are merged into it in
  /// cell order after the sweep. Zero overhead when null and no cell opts
  /// in. Wall-clock data only — the trajectory never moves.
  prof::Profiler* profiler = nullptr;
};

/// Executes a list of experiment cells, concurrently, with a determinism
/// contract: the returned vector (and everything derived from it by ordered
/// reduction) is bit-identical for any `threads` value. Each cell is a pure
/// function of its ExperimentConfig — it builds its own app, trace, engine
/// and RNG (forked from the cell's own seeds), and shares only immutable
/// state (the profile store) and the inner thread pool (whose parallel_map
/// collects in index order) with its siblings.
class Runner {
 public:
  explicit Runner(RunnerOptions options = {});

  /// Run every cell; results arrive in input order.
  std::vector<CellResult> run(const std::vector<ExperimentConfig>& cells);

  /// Convenience: expand + run.
  std::vector<CellResult> run(const ExperimentGrid& grid) { return run(grid.expand()); }

  /// Fitted profiles for one profiler seed (built lazily, cached, shared by
  /// every cell; safe to call before run() to front-load the work).
  const baselines::ProfileStore& profiles(std::uint64_t profile_seed);

  /// The inner pool given to every policy; callers running cells outside
  /// the sweep (e.g. a co-located deployment) may share it.
  std::shared_ptr<ThreadPool> policy_pool() const { return policy_pool_; }

  /// Execute a single cell against a given profile store. Exposed so tests
  /// and the CLI single-run path go through exactly the sweep code path.
  /// `force_profile` attaches a self-profiler even when config.obs doesn't
  /// ask for one (the sweep sets it when RunnerOptions::profiler is set).
  static CellResult run_cell(const ExperimentConfig& config,
                             const baselines::ProfileStore& store,
                             std::shared_ptr<ThreadPool> policy_pool,
                             int lane_threads = 0, bool force_profile = false);

 private:
  RunnerOptions options_;
  std::shared_ptr<ThreadPool> policy_pool_;
  std::map<std::uint64_t, std::unique_ptr<baselines::ProfileStore>> stores_;
};

/// The one place a cell is built and run, shared by Runner::run_cell and
/// exp::serve, which differ only in the collectors and clock they pass:
/// resolves the app and trace, builds the policy (config.policy_override,
/// else the named kind, with `telemetry`'s audit log attached) and the run
/// options, then runs the cell under a Site::CellRun root scope on
/// `profile`. `telemetry`, `profile` and `clock` may be null; a null clock
/// runs the cell as a discrete-event simulation. Throws std::runtime_error
/// for an unknown app or policy, or a fault knob that faults::validate
/// rejects.
CellResult execute_cell(const ExperimentConfig& config, const baselines::ProfileStore& store,
                        std::shared_ptr<ThreadPool> policy_pool, int lane_threads,
                        std::shared_ptr<obs::Telemetry> telemetry,
                        std::shared_ptr<prof::Profiler> profile, sim::Clock* clock);

}  // namespace smiless::exp
