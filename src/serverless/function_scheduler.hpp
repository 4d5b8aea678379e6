#pragma once

#include <cstddef>
#include <deque>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "dag/dag.hpp"
#include "perfmodel/hardware.hpp"
#include "serverless/instance.hpp"
#include "serverless/plan.hpp"
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

/// FunctionScheduler — per-function queues, batching and dispatch. Single
/// responsibility: hold each function's FunctionPlan and its FIFO of ready
/// invocations, and drain that FIFO onto instances: warm_first_pick chooses
/// the serving instance, the scheduler moves up to plan.max_batch
/// invocations into its `inflight` batch, samples the inference latency,
/// and schedules the batch completion (InstancePool::on_batch_done). When
/// the queue is non-empty and no instance exists it defers to the
/// InstancePool's cold-start path. Publishes obs: BatchStart.
class FunctionScheduler {
 public:
  FunctionScheduler(sim::Engine& engine, Rng& rng, const PlatformOptions& options,
                    const AppTable& table, Ledger& ledger);

  void wire(RequestTracker* tracker, InstancePool* pool);

  void add_app(std::size_t nodes);

  /// Replace one function's plan (validation and instance reconciliation
  /// stay with the facade / InstancePool).
  void set_plan(AppId app, dag::NodeId node, FunctionPlan plan);
  const FunctionPlan& plan(AppId app, dag::NodeId node) const;

  /// Queue a ready invocation and try to dispatch.
  void enqueue(AppId app, dag::NodeId node, RequestId request);

  /// Drain the queue onto idle instances; if work remains and the function
  /// has no instance at all, ask the pool to cold-start one.
  void dispatch(AppId app, dag::NodeId node);

  /// Re-queue an evicted in-flight invocation at the head of the queue.
  void push_front(AppId app, dag::NodeId node, RequestId request);

  /// Fail every request queued at `node` (retry budget exhausted).
  void fail_queued(AppId app, dag::NodeId node);

  /// Remove every queued invocation of `request` across all of the app's
  /// functions (terminal Failed transition).
  void strip_request(AppId app, RequestId request);

  bool queue_empty(AppId app, dag::NodeId node) const;
  std::size_t queue_length(AppId app, dag::NodeId node) const;

  /// Stop dispatching (finalize). Idempotent.
  void halt() { halted_ = true; }

 private:
  struct FnQueue {
    FunctionPlan plan;
    std::deque<RequestId> queue;  // ready invocations, by request index
  };

  FnQueue& fn(AppId app, dag::NodeId node);
  const FnQueue& fn(AppId app, dag::NodeId node) const;

  sim::Engine& engine_;
  Rng& rng_;
  const PlatformOptions& options_;
  const AppTable& table_;
  Ledger& ledger_;
  RequestTracker* tracker_ = nullptr;
  InstancePool* pool_ = nullptr;
  std::deque<std::vector<FnQueue>> apps_;  // by AppId, then NodeId
  bool halted_ = false;
};

}  // namespace smiless::serverless
