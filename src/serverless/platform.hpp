#pragma once

#include <limits>
#include <memory>

#include "apps/app.hpp"
#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "perfmodel/hardware.hpp"
#include "serverless/app_table.hpp"
#include "serverless/function_scheduler.hpp"
#include "serverless/gateway.hpp"
#include "serverless/instance_pool.hpp"
#include "serverless/ledger.hpp"
#include "serverless/metrics.hpp"
#include "serverless/plan.hpp"
#include "serverless/policy.hpp"
#include "serverless/request_tracker.hpp"
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

/// The serverless serving platform (OpenFaaS substitute) running inside the
/// discrete-event engine. Platform owns the one table of serving state and
/// the subsystems that act on it (see DESIGN.md §12 for the architecture
/// map):
///
///  - AppTable         — every app's spec, policy, open window, requests
///                        and per-function plan, queue and instances
///  - Gateway          — arrival intake and the per-app window ticker
///  - RequestTracker   — per-request DAG progress and terminal transitions
///  - FunctionScheduler — batching and dispatch (warm-first instance
///                        selection)
///  - InstancePool     — container lifecycle: cold starts, keep-alive
///                        reaping, pre-warm timers, eviction, retry ladder
///  - Ledger           — billing (Eq. 3), metrics books, window samples
///
/// It wires their call cycle and runs the run lifecycle (deploy, submit,
/// finalize); PlatformView, a friend, is the one control surface policies
/// and tests plan and observe through.
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

  sim::Engine& engine_;
  cluster::Cluster& cluster_;
  Rng& rng_;
  PlatformOptions options_;
  AppTable table_;
  Ledger ledger_;
  Gateway gateway_;
  RequestTracker tracker_;
  FunctionScheduler scheduler_;
  InstancePool pool_;
  int cluster_listener_ = 0;  ///< token of the machine-down listener
};

}  // namespace smiless::serverless
