#pragma once

#include "serverless/platform.hpp"

namespace smiless::serverless {

/// Capability-scoped facade over one Platform, handed to Policy callbacks in
/// place of the full `Platform&`. It exposes exactly the surface a policy
/// legitimately needs — the plan / prewarm / scale control operations and
/// per-app introspection — and withholds the run-lifecycle operations
/// (deploy, submit_request, finalize) and the raw Ledger. Inside a sharded
/// cell every lane's platform hands out its own view, so a policy can never
/// observe or mutate cross-lane state (DESIGN.md §14).
///
/// Views are value types over a borrowed Platform: trivially copyable, one
/// pointer wide, constructed fresh at each callback site.
class PlatformView {
 public:
  explicit PlatformView(Platform& platform) : platform_(&platform) {}

  // --- control surface ------------------------------------------------------

  /// Replace the plan of one function. Config changes apply to future
  /// instances; existing mismatched instances are reaped when next idle.
  void set_plan(AppId app, dag::NodeId node, FunctionPlan plan) {
    platform_->set_plan(app, node, plan);
  }
  const FunctionPlan& plan(AppId app, dag::NodeId node) const {
    return platform_->plan(app, node);
  }

  /// Schedule a pre-warm: at `init_start`, create a fresh instance (cold
  /// init begins then) unless the function already has a non-busy instance.
  sim::EventId prewarm_at(AppId app, dag::NodeId node, SimTime init_start) {
    return platform_->prewarm_at(app, node, init_start);
  }
  void cancel_prewarm(sim::EventId id) { platform_->cancel_prewarm(id); }
  void clear_prewarms(AppId app, dag::NodeId node) { platform_->clear_prewarms(app, node); }

  /// Force-create one instance now (cold). Returns false if the cluster had
  /// no capacity.
  bool spawn_instance(AppId app, dag::NodeId node) {
    return platform_->spawn_instance(app, node);
  }

  // --- introspection --------------------------------------------------------

  SimTime now() const { return platform_->now(); }
  /// Lane id of the hosting platform (0 unless sharded).
  int lane() const { return platform_->lane(); }
  const apps::App& app_spec(AppId app) const { return platform_->app_spec(app); }
  int instances_total(AppId app, dag::NodeId node) const {
    return platform_->instances_total(app, node);
  }
  int instances_idle(AppId app, dag::NodeId node) const {
    return platform_->instances_idle(app, node);
  }
  int instances_initializing(AppId app, dag::NodeId node) const {
    return platform_->instances_initializing(app, node);
  }
  int instances_busy(AppId app, dag::NodeId node) const {
    return platform_->instances_busy(app, node);
  }
  std::size_t queue_length(AppId app, dag::NodeId node) const {
    return platform_->queue_length(app, node);
  }
  const AppMetrics& metrics(AppId app) const { return platform_->metrics(app); }
  long in_flight(AppId app) const { return platform_->in_flight(app); }
  const std::vector<int>& arrival_counts(AppId app) const {
    return platform_->arrival_counts(app);
  }

 private:
  Platform* platform_;
};

}  // namespace smiless::serverless
