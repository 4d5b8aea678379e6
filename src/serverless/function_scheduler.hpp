#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "dag/dag.hpp"
#include "perfmodel/hardware.hpp"
#include "serverless/instance.hpp"
#include "serverless/types.hpp"

namespace smiless::sim {
class Engine;
}  // namespace smiless::sim

namespace smiless::serverless {

class AppTable;
class InstancePool;
class Ledger;
struct PlatformOptions;
class RequestTracker;

/// The dispatch order: the index of the first idle instance whose config
/// matches `config` (the function plan's), else of the first idle instance
/// (it is warm — use it), else nullopt, which sends the scheduler down the
/// cold-start path.
std::optional<std::size_t> warm_first_pick(const std::vector<Instance>& instances,
                                           const perf::HwConfig& config);

/// FunctionScheduler — batching and dispatch. Single responsibility: drain
/// each function's FIFO of ready invocations (in the AppTable, beside the
/// function's plan and instances) onto instances: warm_first_pick chooses
/// the serving instance, the scheduler moves up to plan.max_batch
/// invocations into its `inflight` batch, samples the inference latency,
/// and schedules the batch completion (InstancePool::on_batch_done). When
/// the queue is non-empty and no instance exists it defers to the
/// InstancePool's cold-start path. Publishes obs: BatchStart.
class FunctionScheduler {
 public:
  FunctionScheduler(sim::Engine& engine, Rng& rng, const PlatformOptions& options,
                    AppTable& table, Ledger& ledger);

  void wire(RequestTracker* tracker, InstancePool* pool);

  /// Queue a ready invocation and try to dispatch.
  void enqueue(AppId app, dag::NodeId node, RequestId request);

  /// Drain the queue onto idle instances; if work remains and the function
  /// has no instance at all, ask the pool to cold-start one.
  void dispatch(AppId app, dag::NodeId node);

  /// Fail every request queued at `node` (retry budget exhausted).
  void fail_queued(AppId app, dag::NodeId node);

  /// Remove every queued invocation of `request` across all of the app's
  /// functions (terminal Failed transition).
  void strip_request(AppId app, RequestId request);

 private:
  sim::Engine& engine_;
  Rng& rng_;
  const PlatformOptions& options_;
  AppTable& table_;
  Ledger& ledger_;
  RequestTracker* tracker_ = nullptr;
  InstancePool* pool_ = nullptr;
};

}  // namespace smiless::serverless
