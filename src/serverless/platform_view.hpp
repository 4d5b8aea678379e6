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
  /// init begins then) unless an existing instance is expected to still be
  /// warm when the pre-warmed one would become ready.
  void prewarm_at(AppId app, dag::NodeId node, SimTime init_start) {
    platform_->prewarm_at(app, node, init_start);
  }

  /// Force-create one instance now (cold). Returns false if the cluster had
  /// no capacity.
  bool spawn_instance(AppId app, dag::NodeId node) {
    return platform_->spawn_instance(app, node);
  }

  // --- introspection --------------------------------------------------------

  SimTime now() const { return platform_->now(); }
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

 private:
  Platform* platform_;
};

}  // namespace smiless::serverless
