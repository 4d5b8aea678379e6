#pragma once

#include <string>

#include "apps/app.hpp"
#include "common/units.hpp"
#include "serverless/types.hpp"

namespace smiless::obs {
class AuditLog;
}  // namespace smiless::obs

namespace smiless::serverless {

class PlatformView;

/// Arrival statistics for the window that just closed, delivered by the
/// Gateway to the policy each second (§IV-B: "a specified time window,
/// which is set to one second").
struct WindowStats {
  SimTime window_start = 0.0;
  SimTime window_end = 0.0;
  int arrivals = 0;  ///< requests for this app inside the window
};

/// A scheduling policy: the pluggable brain controlling hardware
/// configuration, cold-start management and scaling for every function of
/// an application. SMIless, the four baselines, OPT and the ablations all
/// implement this interface.
///
/// Policies receive a capability-scoped PlatformView — the deploy / prewarm
/// / scale control surface plus per-app introspection — never the full
/// Platform. A policy therefore cannot submit requests, finalize the run or
/// reach another lane's state, which is what makes policies safe to run
/// inside sharded cells (DESIGN.md §14).
class Policy {
 public:
  virtual ~Policy() = default;

  virtual std::string name() const = 0;

  /// Called once when the application is deployed. Must install an initial
  /// FunctionPlan for every DAG node.
  virtual void on_deploy(AppId app, const apps::App& spec, PlatformView& platform) = 0;

  /// Called at each 1 s window boundary with the closed window's stats.
  virtual void on_window(AppId app, const apps::App& spec, PlatformView& platform,
                         const WindowStats& stats) {
    (void)app;
    (void)spec;
    (void)platform;
    (void)stats;
  }

  /// Called when a request arrives at the Gateway, before it is routed.
  virtual void on_arrival(AppId app, const apps::App& spec, PlatformView& platform,
                          SimTime now) {
    (void)app;
    (void)spec;
    (void)platform;
    (void)now;
  }

  /// Called after an instance of `node` died involuntarily — a failed cold
  /// init or a machine-down eviction. The platform has already released the
  /// instance and re-queued any in-flight invocations; policies may react
  /// (re-prewarm, restore a scale-out floor). Default: do nothing and let
  /// the platform's cold-start retry path handle queued work.
  virtual void on_instance_failed(AppId app, const apps::App& spec, PlatformView& platform,
                                  dag::NodeId node, InstanceFailure kind) {
    (void)app;
    (void)spec;
    (void)platform;
    (void)node;
    (void)kind;
  }

  /// Rebind the policy's decision audit log (no-op for policies that do not
  /// audit). ShardedPlatform uses this to point each app's policy at its
  /// lane's log so lanes never share a mutable sink.
  virtual void set_audit_log(obs::AuditLog* audit) { (void)audit; }
};

}  // namespace smiless::serverless
