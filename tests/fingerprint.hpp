#pragma once

// Bitwise trajectory fingerprint of one RunResult, shared by the suites that
// pin a run or compare two runs of the same cell.

#include <sstream>
#include <string>

#include "baselines/experiment.hpp"

namespace smiless {

/// Every booked aggregate plus each E2E latency and each window sample, in
/// hexfloat so equality is bitwise.
inline std::string fingerprint(const baselines::RunResult& r) {
  std::ostringstream os;
  os << std::hexfloat;
  os << r.policy << '|' << r.cost << '|' << r.violation_ratio << '|' << r.submitted << '|'
     << r.completed << '|' << r.failed << '|' << r.invocations << '|' << r.initializations
     << '|' << r.init_failures << '|' << r.evictions << '|' << r.retries << '|' << r.timeouts
     << '|' << r.cpu_core_seconds << '|' << r.gpu_pct_seconds;
  for (const double e : r.e2e) os << ';' << e;
  for (const auto& w : r.windows)
    os << '#' << w.arrivals << ',' << w.instances_cpu << ',' << w.instances_gpu;
  return os.str();
}

}  // namespace smiless
