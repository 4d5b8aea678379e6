#pragma once

#include <algorithm>

#include "common/check.hpp"
#include "serverless/platform.hpp"

namespace smiless::serverless {

/// The platform's one control surface: what policies (and tests) plan,
/// pre-warm, scale and observe through. It acts on the platform's AppTable
/// and subsystems directly, as a friend of Platform, and withholds the
/// run-lifecycle operations (deploy, submit_request, finalize) and the raw
/// Ledger. Inside a sharded cell every lane's platform hands out its own
/// view, so a policy can never observe or mutate cross-lane state
/// (DESIGN.md §14).
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
    SMILESS_CHECK(plan.max_batch >= 1);
    SMILESS_CHECK(plan.min_instances >= 0);
    platform_->table_.fn(app, node).plan = plan;
    platform_->pool_.apply_plan(app, node, plan);
    platform_->scheduler_.dispatch(app, node);
  }
  const FunctionPlan& plan(AppId app, dag::NodeId node) const {
    return platform_->table_.fn(app, node).plan;
  }

  /// Schedule a pre-warm: at `init_start`, create a fresh instance (cold
  /// init begins then) unless an existing instance is expected to still be
  /// warm when the pre-warmed one would become ready.
  void prewarm_at(AppId app, dag::NodeId node, SimTime init_start) {
    platform_->pool_.prewarm_at(app, node, init_start);
  }

  /// Force-create one instance now (cold). Returns false if the cluster had
  /// no capacity.
  bool spawn_instance(AppId app, dag::NodeId node) {
    return platform_->pool_.create_instance(app, node, plan(app, node).config) != nullptr;
  }

  // --- introspection --------------------------------------------------------

  SimTime now() const { return platform_->engine_.now(); }
  int instances_total(AppId app, dag::NodeId node) const {
    return static_cast<int>(platform_->table_.fn(app, node).instances.size());
  }
  int instances_idle(AppId app, dag::NodeId node) const {
    return count(app, node, InstanceState::Idle);
  }
  int instances_initializing(AppId app, dag::NodeId node) const {
    return count(app, node, InstanceState::Init);
  }
  int instances_busy(AppId app, dag::NodeId node) const {
    return count(app, node, InstanceState::Busy);
  }
  std::size_t queue_length(AppId app, dag::NodeId node) const {
    return platform_->table_.fn(app, node).queue.size();
  }
  const AppMetrics& metrics(AppId app) const { return platform_->ledger_.metrics(app); }

 private:
  int count(AppId app, dag::NodeId node, InstanceState st) const {
    const auto& instances = platform_->table_.fn(app, node).instances;
    return static_cast<int>(std::count_if(instances.begin(), instances.end(),
                                          [st](const Instance& i) { return i.st == st; }));
  }

  Platform* platform_;
};

}  // namespace smiless::serverless
