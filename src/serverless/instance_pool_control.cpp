#include "serverless/instance_pool.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "obs/event_bus.hpp"
#include "serverless/app_table.hpp"
#include "serverless/function_scheduler.hpp"
#include "serverless/ledger.hpp"
#include "serverless/platform_view.hpp"
#include "serverless/request_tracker.hpp"

// The InstancePool's externally driven control paths: plan reconciliation,
// pre-warm timers, machine-down eviction and finalize. The per-instance
// lifecycle transitions live in instance_pool.cpp.

namespace smiless::serverless {

using obs::EventType;

void InstancePool::on_machine_down(int machine) {
  if (table_.finalized()) return;
  for (AppId app = 0; static_cast<std::size_t>(app) < table_.size(); ++app) {
    auto& fns = table_.app(app).fns;
    for (std::size_t n = 0; n < fns.size(); ++n) {
      const auto node = static_cast<dag::NodeId>(n);
      auto& f = fns[n];
      auto& fm = ledger_.fn(app, node);
      bool evicted = false;
      for (std::size_t i = 0; i < f.instances.size();) {
        Instance& inst = f.instances[i];
        if (inst.alloc.machine != machine) {
          ++i;
          continue;
        }
        evicted = true;
        if (inst.kill_timer != 0) engine_.cancel(inst.kill_timer);
        if (inst.pending != 0) engine_.cancel(inst.pending);
        ++fm.evictions;
        if (options_.bus != nullptr)
          options_.bus->publish({.type = EventType::InstanceEvicted,
                                 .t = engine_.now(),
                                 .t2 = inst.created,
                                 .app = app,
                                 .node = node,
                                 .instance = inst.id,
                                 .machine = machine});
        // Re-dispatch in-flight work at the head of the queue, preserving
        // the original order; each re-dispatch spends one retry.
        for (auto rit = inst.inflight.rbegin(); rit != inst.inflight.rend(); ++rit) {
          RequestState& r = table_.request(app, *rit);
          if (r.done || r.failed) continue;
          ++r.retries;
          ++fm.retries;
          if (options_.max_retries >= 0 && r.retries > options_.max_retries) {
            tracker_->fail_request(app, *rit);
            continue;
          }
          f.queue.push_front(*rit);
        }
        retire_accounting(app, node, inst);
        f.instances.erase(f.instances.begin() + static_cast<long>(i));
      }
      if (evicted) {
        PlatformView view(*platform_);
        table_.policy(app).on_instance_failed(app, table_.spec(app), view, node,
                                              InstanceFailure::Eviction);
        scheduler_->dispatch(app, node);
      }
    }
  }
}

void InstancePool::apply_plan(AppId app, dag::NodeId node, const FunctionPlan& plan) {
  auto& f = table_.fn(app, node);
  // Reap idle instances whose configuration no longer matches (above the
  // floor); busy ones are reaped when they next go idle.
  std::vector<InstanceId> stale;
  for (const auto& inst : f.instances)
    if (inst.st == InstanceState::Idle && !(inst.config == plan.config))
      stale.push_back(inst.id);
  for (InstanceId id : stale) {
    if (static_cast<int>(f.instances.size()) <= plan.min_instances) break;
    terminate_instance(app, node, id);
  }
  // Raise to the floor immediately (burst scale-out, §V-D).
  int total = static_cast<int>(f.instances.size());
  while (total < plan.min_instances) {
    if (create_instance(app, node, plan.config) == nullptr) break;
    ++total;
  }
}

void InstancePool::prewarm_at(AppId app, dag::NodeId node, SimTime init_start) {
  auto& f = table_.fn(app, node);
  const SimTime at = std::max(init_start, engine_.now());
  const sim::EventId id = engine_.schedule_at(at, [this, app, node] {
    if (table_.finalized()) return;
    auto& fs = table_.fn(app, node);
    // A fired timer drops its own handle, so the list holds exactly the
    // pending ones for finalize to cancel. Timers due at one instant fire
    // in scheduling order, which is list order, so the first handle due
    // now is this timer's.
    const auto self = std::find_if(fs.prewarms.begin(), fs.prewarms.end(),
                                   [&](const PrewarmHandle& h) { return h.at == engine_.now(); });
    SMILESS_CHECK(self != fs.prewarms.end());
    fs.prewarms.erase(self);
    const FunctionPlan& plan = fs.plan;
    // Skip only if an existing instance is expected to still be warm when
    // the pre-warmed one would become ready — otherwise a short-lived
    // instance from the previous request would silently cancel the
    // pre-warm and then die before the arrival it was meant to serve.
    const double mu_init = table_.spec(app).perf_of(node).init_time(plan.config, 0.0);
    const SimTime need = engine_.now() + mu_init + 0.5;
    for (const auto& inst : fs.instances) {
      SimTime covers;
      switch (inst.st) {
        case InstanceState::Init:
          covers = inst.ready_at + plan.keepalive;
          break;
        case InstanceState::Idle:
          covers = inst.kill_at;
          break;
        case InstanceState::Busy:
        default:
          covers = engine_.now() + plan.keepalive;
          break;
      }
      if (covers > need) {
        if (options_.bus != nullptr)
          options_.bus->publish({.type = EventType::PrewarmSkipped,
                                 .t = engine_.now(),
                                 .app = app,
                                 .node = node});
        return;
      }
    }
    if (options_.bus != nullptr)
      options_.bus->publish({.type = EventType::PrewarmFired,
                             .t = engine_.now(),
                             .app = app,
                             .node = node});
    create_instance(app, node, plan.config);
  });
  f.prewarms.push_back({at, id});
}

void InstancePool::finalize(SimTime end) {
  for (AppId app = 0; static_cast<std::size_t>(app) < table_.size(); ++app) {
    auto& fns = table_.app(app).fns;
    for (std::size_t n = 0; n < fns.size(); ++n) {
      const auto node = static_cast<dag::NodeId>(n);
      auto& f = fns[n];
      for (auto& inst : f.instances) {
        if (inst.kill_timer != 0) engine_.cancel(inst.kill_timer);
        if (inst.pending != 0) engine_.cancel(inst.pending);
        if (options_.bus != nullptr)
          options_.bus->publish({.type = EventType::InstanceTerminated,
                                 .t = end,
                                 .t2 = inst.created,
                                 .app = app,
                                 .node = node,
                                 .instance = inst.id,
                                 .machine = inst.alloc.machine});
        ledger_.bill_instance(app, node, inst, end);
        cluster_.release(inst.alloc);
      }
      f.instances.clear();
      for (const PrewarmHandle& h : f.prewarms) engine_.cancel(h.id);
      f.prewarms.clear();
    }
  }
}

}  // namespace smiless::serverless
