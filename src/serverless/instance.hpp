#pragma once

#include <limits>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/units.hpp"
#include "perfmodel/hardware.hpp"
#include "serverless/types.hpp"
#include "sim/engine.hpp"

namespace smiless::serverless {

/// One container instance of a function: the unit the InstancePool manages,
/// the FunctionScheduler selects among, and the Ledger bills from `created`
/// to its termination instant.
struct Instance {
  InstanceId id = -1;
  perf::HwConfig config;
  cluster::Allocation alloc;
  InstanceState st = InstanceState::Init;
  SimTime created = 0.0;
  SimTime ready_at = 0.0;  ///< when the cold init completes
  /// When the idle instance is due for its keep-alive reap: the last idle
  /// transition plus the keep-alive; infinite while busy or kept forever.
  SimTime kill_at = std::numeric_limits<SimTime>::infinity();
  bool served = false;          ///< has executed at least one batch
  /// Pending reap timer, 0 if none. A claim leaves it armed, so it may fire
  /// before kill_at (it then re-arms there) or find the instance busy.
  sim::EventId kill_timer = 0;
  SimTime kill_timer_at = 0.0;  ///< when kill_timer fires; never after kill_at
  sim::EventId pending = 0;     ///< in-flight init or batch-completion event
  std::vector<RequestId> inflight;  ///< requests executing in the current batch
};

}  // namespace smiless::serverless
