#pragma once

#include <string>
#include <vector>

#include "common/json.hpp"
#include "exp/runner.hpp"

namespace smiless::exp {

// The combined_* documents and windows_csv are what write_artifacts writes,
// held whole in memory; write_artifacts itself streams the same bytes. Tests
// and in-process timings call them.

/// Combined Perfetto trace for a set of executed cells: each cell's events
/// render into their own pid range (pid_base = cell index * 64) labelled
/// "display_name seed=N", concatenated in cell order into one trace-event
/// array. Cells without telemetry contribute nothing.
json::Value combined_trace(const std::vector<CellResult>& cells);

/// {"cells": [{"label", "policy", "app", "seed", "metrics": {...}}, ...]}
/// in cell order.
json::Value combined_metrics(const std::vector<CellResult>& cells);

/// {"cells": [{"label", "policy", "app", "seed", "decisions": [...]}, ...]}
/// in cell order.
json::Value combined_audit(const std::vector<CellResult>& cells);

/// Per-window time series of every cell as CSV (header:
/// cell,label,policy,app,seed,window_start,arrivals,instances_total,
/// instances_cpu,instances_gpu). Built from RunResult::windows, so it needs
/// no telemetry attached.
std::string windows_csv(const std::vector<CellResult>& cells);

/// {"cells": [{"label", ..., "series": {...obs::TimeSeries...}}, ...]} in
/// cell order. Cells without an enabled series contribute nothing.
/// Byte-stable across thread/lane-thread counts (DESIGN.md §15).
json::Value combined_series(const std::vector<CellResult>& cells);

/// {"cells": [{"label", ..., "profile": {...prof::Profiler...}},
///  "perfetto": [...counter/slice events...]}, ...]} in cell order.
/// Wall-clock data — written only when --profile-out asks for it, never
/// compared against goldens.
json::Value combined_profile(const std::vector<CellResult>& cells);

/// Write whichever artifacts `obs` names to disk. All outputs except the
/// profile (wall-clock by definition) are pure functions of the cell list,
/// which the runner returns in input order — byte-stable across thread
/// counts. Each file holds the bytes json::save_file writes for its
/// combined_* document (windows_csv for the CSV), but is written one trace
/// record, cell row or CSV row at a time, so the JSON artifacts cost about
/// one cell's row of memory rather than the whole document. The HTML report
/// is still built whole. Throws `cannot write <path>` when a file cannot be
/// written in full.
void write_artifacts(const std::vector<CellResult>& cells, const ObservabilityOptions& obs);

}  // namespace smiless::exp
