#pragma once

#include <cstdint>
#include <memory>
#include <ostream>

#include "concurrency/thread_pool.hpp"
#include "exp/runner.hpp"

namespace smiless::exp {

/// Knobs of one live-serving run (`smiless serve`). These are *pacing-side*
/// settings only — everything that defines the experiment itself (app,
/// policy, trace, faults, seeds) stays in the unchanged ExperimentConfig,
/// so any existing config file serves as-is.
struct ServeOptions {
  /// Sim-seconds per wall-second. 1 replays the trace at its natural rate;
  /// the CI smoke uses 1e5 to compress minutes into milliseconds while
  /// exercising exactly the live code path.
  double speedup = 1.0;

  /// Live NDJSON event stream (obs::StreamSink; one flushed line per
  /// event). Null disables streaming. Non-null forces telemetry on even
  /// when config.obs collects nothing — the stream needs the event bus.
  std::ostream* stream = nullptr;
};

/// What one serve run produced: the same CellResult a DES run of the same
/// config yields (same books, same artifacts inputs) plus wall-side
/// diagnostics. Everything wall-derived here is display-only and never
/// enters golden-compared output.
struct ServeReport {
  CellResult cell;
  double speedup = 1.0;
  double wall_seconds = 0.0;     ///< wall time spent serving
  double max_lag_seconds = 0.0;  ///< worst deadline lateness observed
  std::uint64_t batches = 0;     ///< distinct sim instants paced
  std::uint64_t stream_lines = 0;  ///< NDJSON lines written (0 if no stream)
  bool interrupted = false;      ///< the clock stopped the run early
};

/// Run one cell in live-serving mode (DESIGN.md §16): execute_cell, as
/// Runner::run_cell uses it, with an rt::WallClock pacing the cell's lane
/// loop so each simulated instant fires no earlier than its wall deadline.
/// By the Clock contract the books in `cell.result` match the DES run of
/// the same config (the CI serve smoke diffs the two summary tables).
///
/// Any `lanes` serves: a config holds one app, which populates exactly one
/// lane, the one a paced run needs. Throws std::runtime_error for configs
/// run_cell would reject (unknown app/policy).
ServeReport serve(const ExperimentConfig& config, const baselines::ProfileStore& store,
                  std::shared_ptr<ThreadPool> policy_pool, const ServeOptions& options);

}  // namespace smiless::exp
