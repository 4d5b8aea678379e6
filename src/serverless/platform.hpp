#pragma once

#include <cstddef>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "apps/app.hpp"
#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "dag/dag.hpp"
#include "perfmodel/hardware.hpp"
#include "serverless/app_table.hpp"
#include "serverless/instance.hpp"
#include "serverless/ledger.hpp"
#include "serverless/metrics.hpp"
#include "serverless/plan.hpp"
#include "serverless/policy.hpp"
#include "serverless/types.hpp"
#include "sim/engine.hpp"

namespace smiless::faults {
class FaultInjector;
}  // namespace smiless::faults

namespace smiless::obs {
class EventBus;
}  // namespace smiless::obs

namespace smiless::prof {
class Profiler;
}  // namespace smiless::prof

namespace smiless::serverless {

class PlatformView;

/// Platform tuning knobs.
struct PlatformOptions {
  double window_seconds = 1.0;  ///< Gateway counting window (s), §IV-B
  double inference_noise = 0.06; ///< multiplicative jitter on sampled latencies

  /// Cold-start retry with exponential backoff. When a function has queued
  /// work but cannot obtain a working instance (the allocation failed, or
  /// the container's init failed under fault injection), the platform
  /// retries after `retry_delay * retry_backoff^(attempt-1)` seconds,
  /// capped at `retry_max_delay`. The attempt counter is per function and
  /// resets on the first successful init. After `max_retries` consecutive
  /// failed attempts every request queued at the function transitions to
  /// the terminal Failed state (counted in AppMetrics::failed); a negative
  /// `max_retries` retries forever (the pre-fault one-shot semantics, just
  /// with backoff instead of a fixed delay).
  double retry_delay = 0.1;     ///< initial backoff delay (s)
  double retry_backoff = 2.0;   ///< multiplier per consecutive failed attempt
  double retry_max_delay = 5.0; ///< backoff ceiling (s)
  int max_retries = 12;         ///< consecutive failures before Failed; < 0 = unbounded

  /// Per-invocation timeout, measured from the moment the invocation
  /// became ready (all predecessors done). When it expires before the
  /// node completed, the whole request transitions to Failed (counted in
  /// FunctionMetrics::timeouts at the stuck node). Infinity disables it.
  double request_timeout = std::numeric_limits<double>::infinity();

  bool record_traces = false;   ///< keep per-request NodeSpan traces (§IV-A events)

  /// Optional fault source (non-owning; must outlive the platform). When
  /// null or disabled the platform behaves exactly like the fault-free
  /// simulator. See faults::FaultSpec.
  faults::FaultInjector* faults = nullptr;

  /// Optional observability sink (non-owning; must outlive the platform).
  /// When null the platform publishes nothing and pays one pointer test per
  /// lifecycle site — the simulated trajectory is identical either way.
  obs::EventBus* bus = nullptr;

  /// Optional runtime self-profiler (non-owning; must outlive the platform;
  /// not serialized). Same zero-overhead contract as `bus`: null costs one
  /// pointer test per instrumented site and the trajectory never moves
  /// either way — the profiler only reads the wall clock, it never writes
  /// into golden-compared artifacts. Inside a sharded cell this points at
  /// the *lane's* private profiler (a Profiler is not thread-safe).
  prof::Profiler* prof = nullptr;
};

/// The dispatch order: the index of the first idle instance whose config
/// matches `config` (the function plan's), else of the first idle instance
/// (it is warm — use it), else nullopt, which sends dispatch down the
/// cold-start path.
std::optional<std::size_t> warm_first_pick(const std::vector<Instance>& instances,
                                           const perf::HwConfig& config);

/// The serverless serving platform (OpenFaaS substitute) running inside the
/// discrete-event engine. Platform owns the one table of serving state
/// (AppTable: every app's spec, policy, open window, requests and
/// per-function plan, queue and instances) and the books (Ledger: billing,
/// Eq. 3, metrics, window samples), and acts on them through private
/// members defined one concern per source file: arrivals and windows,
/// request progress, dispatch, and the container lifecycle (DESIGN.md §12).
/// Its public members run the run lifecycle (deploy, submit, finalize);
/// PlatformView, a friend, is the one control surface policies and tests
/// plan and observe through.
///
/// Execution semantics:
///  - A request triggers its DAG's source functions; a function becomes
///    ready once all its predecessors completed (§II-A).
///  - A ready invocation queues at its function. An Idle instance picks up
///    up to `max_batch` queued invocations per inference call. If the
///    function has no instance at all, a cold start is triggered on demand.
///  - Instances transition Init -> Idle -> Busy -> Idle ... -> terminated.
///    The keep-alive reaper and pre-warm timers implement the cold-start
///    policies of §V-B.
///  - Billing accrues per instance from creation to termination at the
///    configuration's unit price (Eq. 3).
///
/// Failure semantics (all off by default; see PlatformOptions and
/// faults::FaultSpec):
///  - A failed container init bills the attempt, releases the grant and
///    re-enters the cold-start path under the bounded backoff retry.
///  - When a machine goes down every instance on it is evicted: billed to
///    the eviction instant, released, and its in-flight invocations are
///    re-queued at the head of their function queue (one retry each).
///  - A request whose invocation times out, or whose function exhausted
///    the retry budget, reaches the terminal Failed state: it is removed
///    from every queue and never completes.
///  - Policies observe involuntary instance deaths via
///    Policy::on_instance_failed and may re-provision.
class Platform {
 public:
  Platform(sim::Engine& engine, cluster::Cluster& cluster, perf::Pricing pricing, Rng& rng,
           PlatformOptions options = {});
  ~Platform();

  Platform(const Platform&) = delete;
  Platform& operator=(const Platform&) = delete;

  /// Deploy an application under a policy; fires Policy::on_deploy and
  /// starts the window ticker.
  AppId deploy(apps::App app, std::shared_ptr<Policy> policy);

  /// Schedule a user request for `app` at absolute time `arrival`.
  void submit_request(AppId app, SimTime arrival);

  /// Stop billing and close all instances at time `end` (call after the
  /// engine has drained). Idempotent.
  void finalize(SimTime end);

  const AppMetrics& metrics(AppId app) const { return ledger_.metrics(app); }

  /// The platform's books: per-instance BillingRecords and metrics.
  const Ledger& ledger() const { return ledger_; }

 private:
  friend class PlatformView;

  // --- arrivals and windows (gateway.cpp): count arrivals per counting
  // window (§IV-B: "a specified time window, which is set to one second"),
  // snapshot each closed window into the Ledger (the only record of its
  // arrivals) and deliver its WindowStats to the policy.

  /// Apps deployed at one instant: their windows end together, so they share
  /// one self-rescheduling tick event that closes each app's window in
  /// deploy order.
  struct WindowGrid {
    SimTime opened = 0.0;  ///< the deploy instant
    SimTime next_end = 0.0;
    std::vector<AppId> apps;  ///< deploy order
  };

  /// Start the app's windows: the first one starts now. The app joins the
  /// tick of apps deployed at this instant, or schedules a tick of its own
  /// (called after Policy::on_deploy so the deploy-time plan installation
  /// precedes any window event).
  void start_windows(AppId app);
  void window_tick(WindowGrid& grid);
  void close_window(AppId app, SimTime end);

  // --- request progress (request_tracker.cpp): each request's DAG progress,
  // its terminal Completed or Failed transition, timeouts and span traces.

  /// Admit one request at the current sim time: build its DAG progress
  /// state, publish RequestSubmitted, and enqueue the DAG's source nodes.
  RequestId admit(AppId app);

  /// A node's invocation became ready (all predecessors done): record
  /// readiness, arm the timeout, and queue it at its function.
  void on_node_ready(AppId app, dag::NodeId node, RequestId request);
  void arm_timeout(AppId app, dag::NodeId node, RequestId request);

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
  void cancel_timeouts();

  // --- dispatch (function_scheduler.cpp): batch each function's ready
  // invocations onto the instances warm_first_pick chooses.

  /// Queue a ready invocation and try to dispatch.
  void enqueue(AppId app, dag::NodeId node, RequestId request);

  /// Drain the queue onto idle instances; if work remains and the function
  /// has no instance at all, cold-start one (ensure_capacity).
  void dispatch(AppId app, dag::NodeId node);

  /// Fail every request queued at `node` (retry budget exhausted).
  void fail_queued(AppId app, dag::NodeId node);

  /// Remove every queued invocation of `request` across all of the app's
  /// functions (terminal Failed transition).
  void strip_request(AppId app, RequestId request);

  // --- container lifecycle (instance_pool.cpp, instance_pool_control.cpp):
  // Init -> Idle -> Busy -> terminated, with cold starts, liveness-aware
  // pre-warm dedup, keep-alive and config-drift reaping, machine-down
  // eviction and the bounded-backoff cold-start retry ladder.

  /// Claim an idle instance for a batch: flip it Busy (dispatch forms the
  /// batch). No engine call: a pending reap timer stays armed and, when it
  /// fires, drops itself or re-arms at the instance's new kill_at.
  void claim(Instance& inst);

  /// Force-create one instance now (cold). Returns nullptr if the cluster
  /// had no capacity.
  Instance* create_instance(AppId app, dag::NodeId node, const perf::HwConfig& config);

  /// Dispatch's cold-start path: when the function has no instance at all,
  /// create one — a failed allocation enters the bounded retry ladder; when
  /// the budget is exhausted, everything queued at the node fails.
  void ensure_capacity(AppId app, dag::NodeId node);

  /// Batch completion of the instance's `inflight` batch, which started at
  /// `exec_start`: flip the instance back to Idle, record the spans,
  /// publish BatchEnd and each InvocationDone, complete each request's
  /// node, then clear the batch and run the idle transition (re-dispatch,
  /// reap).
  void on_batch_done(AppId app, dag::NodeId node, InstanceId instance_id, SimTime exec_start);

  void on_init_done(AppId app, dag::NodeId node, InstanceId instance_id);
  void on_init_failed(AppId app, dag::NodeId node, InstanceId instance_id);
  void on_instance_idle(AppId app, dag::NodeId node, InstanceId instance_id);
  /// Make sure a reap timer fires no later than the idle instance's kill_at.
  void arm_reap(AppId app, dag::NodeId node, Instance& inst);
  void on_reap_timer(AppId app, dag::NodeId node, InstanceId instance_id);
  void terminate_instance(AppId app, dag::NodeId node, InstanceId instance_id);
  /// Bill an instance up to now and return its grant to the cluster.
  void retire_accounting(AppId app, dag::NodeId node, const Instance& inst);
  /// Backoff delay for the attempt-th consecutive failed cold start.
  double backoff_delay(int attempt) const;

  /// Reconcile instances with a new plan: reap stale-config idle instances
  /// above the floor, then raise the instance count to the new floor.
  void apply_plan(AppId app, dag::NodeId node, const FunctionPlan& plan);

  /// Schedule a pre-warm: at `init_start`, create a fresh instance (cold
  /// init begins then) unless an existing instance is expected to still be
  /// warm when the pre-warmed one would become ready.
  void prewarm_at(AppId app, dag::NodeId node, SimTime init_start);

  /// Evict all instances hosted on a machine that went down.
  void on_machine_down(int machine);

  /// Bill and release every instance at `end` and cancel pre-warm timers.
  void finalize_instances(SimTime end);

  sim::Engine& engine_;
  cluster::Cluster& cluster_;
  Rng& rng_;
  PlatformOptions options_;
  AppTable table_;
  Ledger ledger_;
  std::deque<WindowGrid> grids_;  // deque: the tick events hold grid refs
  int cluster_listener_ = 0;      ///< token of the machine-down listener
};

}  // namespace smiless::serverless
