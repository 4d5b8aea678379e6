#pragma once

#include "common/units.hpp"
#include "dag/dag.hpp"
#include "serverless/types.hpp"

namespace smiless::sim {
class Engine;
}  // namespace smiless::sim

namespace smiless::serverless {

class AppTable;
class FunctionScheduler;
class Ledger;
struct PlatformOptions;

/// RequestTracker — the per-request DAG lifecycle. Single responsibility:
/// track each request's progress through its DAG (pending-predecessor
/// counts, the ready set, sink completion), drive the terminal transitions
/// (Completed into the Ledger's books, Failed with queue stripping), arm and
/// service per-invocation timeouts, and record NodeSpan traces. Publishes
/// obs: RequestSubmitted, InvocationReady, TimeoutFired, RequestFailed,
/// RequestCompleted.
class RequestTracker {
 public:
  RequestTracker(sim::Engine& engine, const PlatformOptions& options, AppTable& table,
                 Ledger& ledger);

  void wire(FunctionScheduler* scheduler) { scheduler_ = scheduler; }

  /// Admit one request at the current sim time: build its DAG progress
  /// state, publish RequestSubmitted, and enqueue the DAG's source nodes.
  RequestId admit(AppId app);

  /// A node's invocation became ready (all predecessors done): record
  /// readiness, arm the timeout, and hand it to the scheduler's queue.
  void on_node_ready(AppId app, dag::NodeId node, RequestId request);

  /// A node finished for `request`: cancel its timeout, decrement successor
  /// predecessor counts (enqueueing newly ready nodes), and close the
  /// request when its last sink completes.
  void complete_node(AppId app, dag::NodeId node, RequestId request);

  /// Terminal Failed transition: strip the request from every queue, cancel
  /// its timers, count it. Callers attribute the cause in the per-function
  /// metrics before calling.
  void fail_request(AppId app, RequestId request);

  /// Record one executed NodeSpan for `request` at `node` (tracing mode).
  void record_span(AppId app, dag::NodeId node, RequestId request, SimTime exec_start,
                   int batch_size);

  /// Cancel all outstanding timeout timers (finalize).
  void finalize();

 private:
  void arm_timeout(AppId app, dag::NodeId node, RequestId request);

  sim::Engine& engine_;
  const PlatformOptions& options_;
  AppTable& table_;
  Ledger& ledger_;
  FunctionScheduler* scheduler_ = nullptr;
};

}  // namespace smiless::serverless
