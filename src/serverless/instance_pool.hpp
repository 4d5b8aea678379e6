#pragma once

#include <deque>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "dag/dag.hpp"
#include "perfmodel/hardware.hpp"
#include "serverless/instance.hpp"
#include "serverless/plan.hpp"
#include "serverless/types.hpp"
#include "sim/engine.hpp"

namespace smiless::serverless {

class AppTable;
class FunctionScheduler;
class Ledger;
class Platform;
struct PlatformOptions;
class RequestTracker;

/// InstancePool — the container lifecycle manager. Single responsibility:
/// own every function's instances and drive their Init -> Idle -> Busy ->
/// terminated transitions: cold starts (on-demand, floor raises, pre-warm
/// timers with liveness-aware dedup), keep-alive/grace reaping, config-drift
/// reaping, machine-down eviction with in-flight re-dispatch, and the
/// bounded-exponential-backoff cold-start retry ladder. Publishes obs:
/// InstanceCreated, InstanceReady, InstanceInitFailed, InstanceTerminated,
/// InstanceEvicted, PrewarmFired, PrewarmSkipped, RetryScheduled.
class InstancePool {
 public:
  /// Instance counts of one app at a window boundary (Gateway census).
  struct Census {
    int total = 0;
    int cpu = 0;
    int gpu = 0;
  };

  InstancePool(sim::Engine& engine, cluster::Cluster& cluster, Rng& rng,
               const PlatformOptions& options, const AppTable& table, Ledger& ledger);

  void wire(Platform* platform, FunctionScheduler* scheduler, RequestTracker* tracker);

  void add_app(std::size_t nodes);

  /// The live instance list warm_first_pick selects from.
  std::vector<Instance>& instances(AppId app, dag::NodeId node);

  /// Claim an idle instance for a batch: flip it Busy (the scheduler forms
  /// the batch). No engine call: a pending reap timer stays armed and, when
  /// it fires, drops itself or re-arms at the instance's new kill_at.
  void claim(Instance& inst);

  /// Force-create one instance now (cold). Returns nullptr if the cluster
  /// had no capacity.
  Instance* create_instance(AppId app, dag::NodeId node, const perf::HwConfig& config);

  /// The scheduler's cold-start path: when the function has no instance at
  /// all, create one — a failed allocation enters the bounded retry ladder;
  /// when the budget is exhausted, everything queued at the node fails.
  void ensure_capacity(AppId app, dag::NodeId node);

  /// Batch completion: flip the instance back to Idle, complete each
  /// request's node, then run the idle transition (re-dispatch, reap).
  void on_batch_done(AppId app, dag::NodeId node, InstanceId instance_id,
                     std::vector<RequestId> requests);

  /// Reconcile instances with a new plan: reap stale-config idle instances
  /// above the floor, then raise the instance count to the new floor.
  void apply_plan(AppId app, dag::NodeId node, const FunctionPlan& plan);

  /// Schedule a pre-warm: at `init_start`, create a fresh instance (cold
  /// init begins then) unless an existing instance is expected to still be
  /// warm when the pre-warmed one would become ready.
  sim::EventId prewarm_at(AppId app, dag::NodeId node, SimTime init_start);
  void cancel_prewarm(sim::EventId id);
  void clear_prewarms(AppId app, dag::NodeId node);

  /// Force-create one instance under the function's current plan.
  bool spawn(AppId app, dag::NodeId node);

  /// Evict all instances hosted on a machine that went down.
  void on_machine_down(int machine);

  /// Bill and release every instance at `end`, cancel pre-warm timers, stop.
  void finalize(SimTime end);

  int count_total(AppId app, dag::NodeId node) const;
  int count_state(AppId app, dag::NodeId node, InstanceState st) const;
  Census census(AppId app) const;

 private:
  struct PrewarmHandle {
    SimTime at = 0.0;  ///< when the timer fires
    sim::EventId id = 0;
  };
  struct FnPool {
    std::vector<Instance> instances;
    std::vector<PrewarmHandle> prewarms;  ///< exactly the pending pre-warm timers
    InstanceId next_instance_id = 0;
    bool retry_scheduled = false;
    int retry_attempts = 0;  // consecutive failed cold starts (alloc or init)
  };

  FnPool& fn(AppId app, dag::NodeId node);
  const FnPool& fn(AppId app, dag::NodeId node) const;

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

  sim::Engine& engine_;
  cluster::Cluster& cluster_;
  Rng& rng_;
  const PlatformOptions& options_;
  const AppTable& table_;
  Ledger& ledger_;
  Platform* platform_ = nullptr;
  FunctionScheduler* scheduler_ = nullptr;
  RequestTracker* tracker_ = nullptr;
  std::deque<std::vector<FnPool>> apps_;  // by AppId, then NodeId
  bool halted_ = false;
};

}  // namespace smiless::serverless
