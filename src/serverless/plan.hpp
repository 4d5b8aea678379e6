#pragma once

#include <limits>

#include "perfmodel/hardware.hpp"

namespace smiless::serverless {

/// Per-function execution plan — the unit of control a scheduling policy
/// exerts over the platform. Combines the hardware configuration (star_k in
/// the paper) with the cold-start management knobs (triangle_k).
struct FunctionPlan {
  perf::HwConfig config{perf::Backend::Cpu, 1, 0};

  /// Seconds an instance may sit idle before the platform reaps it.
  /// 0 terminates immediately after the queue drains (pre-warming mode,
  /// Case I of §V-B); infinity keeps the instance alive (Case II).
  double keepalive = std::numeric_limits<double>::infinity();

  /// Maximum invocations the instance Agent batches per inference call
  /// (adaptive batching, §V-B2).
  int max_batch = 1;

  /// Instance floor maintained by the Auto-scaler during bursts: the
  /// platform will not reap idle instances below this count, and raises the
  /// count immediately when the floor increases.
  int min_instances = 0;

  /// Grace period for a pre-warmed instance that has not served a request
  /// yet. With keepalive == 0 a freshly-initialised instance would otherwise
  /// terminate before the invocation it was warmed for arrives; the grace
  /// absorbs pre-warm timing jitter.
  double prewarm_grace = 2.0;

  static double forever() { return std::numeric_limits<double>::infinity(); }
};

}  // namespace smiless::serverless
