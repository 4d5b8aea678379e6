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
  SimTime kill_at = std::numeric_limits<SimTime>::infinity();  ///< armed reap time
  bool served = false;          ///< has executed at least one batch
  sim::EventId kill_timer = 0;  ///< pending keep-alive reap, 0 if none
  sim::EventId pending = 0;     ///< in-flight init or batch-completion event
  std::vector<RequestId> inflight;  ///< requests executing in the current batch
};

}  // namespace smiless::serverless
