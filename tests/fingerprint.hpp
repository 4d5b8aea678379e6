#pragma once

// Bitwise trajectory fingerprint of one RunResult, shared by the suites that
// pin a run or compare two runs of the same cell, and the FNV-1a hash the
// suites pin such fingerprints (and other exact outputs) by.

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>

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

/// 64-bit FNV-1a over `bytes`, continuing from `h` (the offset basis by
/// default), so a sequence of values hashes by chaining calls.
inline std::uint64_t fnv1a(std::string_view bytes,
                           std::uint64_t h = 0xcbf29ce484222325ULL) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace smiless
