#pragma once

#include <cstdint>
#include <string>

#include "common/json.hpp"

namespace perfbench {

/// One process runs one repetition of one workload in one of two passes:
///  - timed: nothing attached beyond what the workload itself asks for; its
///    serving wall feeds the end-to-end metrics;
///  - traced: the self-profiler, the per-policy timing decorator and the
///    allocation counter are attached and the per-layer metrics come out;
///    it never feeds an end-to-end metric.
enum class Pass { Timed, Traced };

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 0;
  Pass pass = Pass::Timed;
  /// Size multiplier (1 = the benchmark's workloads; the self-test uses a
  /// small fraction to run the same code path in seconds).
  double scale = 1.0;
  /// Scratch directory for generated traces and obs artifacts.
  std::string workdir = ".";
};

/// Set up, serve and check one repetition of "fleet_warm",
/// "fleet_prewarm_faults" or "paper_observed"; returns its report (setup and
/// serving wall, the serving phase's steady-clock start, the books, the
/// trajectory fingerprint and, in the traced pass, the per-layer
/// measurements). Throws std::runtime_error for an
/// unknown workload or when a conservation check fails.
smiless::json::Value run_workload(const RunArgs& args);

}  // namespace perfbench
