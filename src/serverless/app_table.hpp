#pragma once

#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "apps/app.hpp"
#include "common/check.hpp"
#include "common/units.hpp"
#include "dag/dag.hpp"
#include "serverless/instance.hpp"
#include "serverless/plan.hpp"
#include "serverless/policy.hpp"
#include "serverless/tracing.hpp"
#include "serverless/types.hpp"
#include "sim/engine.hpp"

namespace smiless::serverless {

/// One pending pre-warm timer of a function.
struct PrewarmHandle {
  SimTime at = 0.0;  ///< when the timer fires
  sim::EventId id = 0;
};

/// One function's serving state — the unit of control a policy plans (§V):
/// its plan, the FIFO of ready invocations and everything serving them.
struct FunctionState {
  FunctionPlan plan;
  std::deque<RequestId> queue;          ///< ready invocations, by request index
  std::vector<Instance> instances;      ///< live instances, in creation order
  std::vector<PrewarmHandle> prewarms;  ///< exactly the pending pre-warm timers
  InstanceId next_instance_id = 0;
  bool retry_scheduled = false;  ///< a cold-start retry timer is pending
  int retry_attempts = 0;        ///< consecutive failed cold starts (alloc or init)
};

/// One request's progress through its app's DAG.
struct RequestState {
  SimTime arrival = 0.0;
  std::vector<int> pending_preds;        ///< per node
  std::vector<SimTime> ready_at;         ///< when each node's invocation became ready
  std::vector<NodeSpan> spans;           ///< recorded when tracing is enabled
  std::vector<sim::EventId> timeout_ev;  ///< per node; non-empty iff a timeout was armed
  int sinks_remaining = 0;
  int retries = 0;      ///< times any invocation of this request was re-dispatched
  bool done = false;
  bool failed = false;  ///< terminal Failed state (timeout / retries exhausted)
};

/// One deployed application's serving state.
struct AppState {
  apps::App spec;
  std::shared_ptr<Policy> policy;
  /// Arrivals in the open window; closed windows' counts live in the app's
  /// AppMetrics::windows.
  int open_arrivals = 0;
  std::vector<RequestState> requests;  ///< by RequestId
  std::vector<FunctionState> fns;      ///< by NodeId
};

/// AppTable — the platform's one table of serving state: every deployed
/// app's spec, policy, open window, requests and functions, keyed by AppId
/// in deployment order, plus whether the platform was finalized. The
/// Platform's members act on it, the PlatformView reads and plans through
/// it, and the Ledger keeps the books. An app's state never moves once added, so references to
/// it and to its functions survive later deploys.
class AppTable {
 public:
  AppId add(apps::App spec, std::shared_ptr<Policy> policy) {
    SMILESS_CHECK(policy != nullptr);
    auto a = std::make_unique<AppState>();
    a->fns.resize(spec.dag.size());
    a->spec = std::move(spec);
    a->policy = std::move(policy);
    apps_.push_back(std::move(a));
    return static_cast<AppId>(apps_.size() - 1);
  }

  std::size_t size() const { return apps_.size(); }

  AppState& app(AppId id) {
    SMILESS_CHECK(id >= 0 && static_cast<std::size_t>(id) < apps_.size());
    return *apps_[id];
  }
  const AppState& app(AppId id) const { return const_cast<AppTable&>(*this).app(id); }

  const apps::App& spec(AppId id) const { return app(id).spec; }
  Policy& policy(AppId id) const { return *app(id).policy; }

  FunctionState& fn(AppId id, dag::NodeId node) {
    auto& fns = app(id).fns;
    SMILESS_CHECK(node >= 0 && static_cast<std::size_t>(node) < fns.size());
    return fns[node];
  }

  RequestState& request(AppId id, RequestId request) {
    auto& rs = app(id).requests;
    SMILESS_CHECK(request >= 0 && static_cast<std::size_t>(request) < rs.size());
    return rs[request];
  }

  /// Set once by Platform::finalize: timers still draining from the engine
  /// afterwards do nothing.
  bool finalized() const { return finalized_; }
  void finalize() { finalized_ = true; }

 private:
  std::vector<std::unique_ptr<AppState>> apps_;
  bool finalized_ = false;
};

}  // namespace smiless::serverless
