#include "serverless/platform.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"
#include "faults/fault_injector.hpp"
#include "obs/event_bus.hpp"
#include "prof/profiler.hpp"
#include "serverless/platform_view.hpp"

// The Platform's per-instance lifecycle transitions: claims, cold starts
// and their retry ladder, batch completion, keep-alive reaping. The
// externally driven control paths live in instance_pool_control.cpp.

namespace smiless::serverless {

using obs::EventType;

void Platform::claim(Instance& inst) {
  inst.kill_at = std::numeric_limits<SimTime>::infinity();
  inst.st = InstanceState::Busy;
  inst.served = true;
}

double Platform::backoff_delay(int attempt) const {
  double d = options_.retry_delay;
  for (int i = 1; i < attempt && d < options_.retry_max_delay; ++i) d *= options_.retry_backoff;
  return std::min(d, options_.retry_max_delay);
}

void Platform::ensure_capacity(AppId app, dag::NodeId node) {
  auto& f = table_.fn(app, node);
  if (!f.instances.empty()) return;
  if (create_instance(app, node, f.plan.config) != nullptr) return;
  if (f.retry_scheduled) return;
  if (options_.max_retries >= 0 && f.retry_attempts >= options_.max_retries) {
    f.retry_attempts = 0;
    fail_queued(app, node);
    return;
  }
  ++f.retry_attempts;
  ++ledger_.fn(app, node).retries;
  f.retry_scheduled = true;
  if (options_.bus != nullptr)
    options_.bus->publish({.type = EventType::RetryScheduled,
                           .t = engine_.now(),
                           .app = app,
                           .node = node,
                           .value = backoff_delay(f.retry_attempts),
                           .count = f.retry_attempts});
  engine_.schedule_after(backoff_delay(f.retry_attempts), [this, app, node] {
    table_.fn(app, node).retry_scheduled = false;
    dispatch(app, node);
  });
}

Instance* Platform::create_instance(AppId app, dag::NodeId node, const perf::HwConfig& config) {
  prof::ScopeTimer scope(options_.prof, prof::Site::PoolCreate);
  auto& f = table_.fn(app, node);
  auto alloc = cluster_.allocate(config);
  if (!alloc) return nullptr;

  Instance inst;
  inst.id = f.next_instance_id++;
  inst.config = config;
  inst.alloc = *alloc;
  inst.st = InstanceState::Init;
  inst.created = engine_.now();
  f.instances.push_back(inst);
  ++ledger_.fn(app, node).initializations;

  const double init = table_.spec(app).perf_of(node).sample_init_time(config, rng_);
  f.instances.back().ready_at = engine_.now() + init;
  const InstanceId inst_id = inst.id;
  if (options_.bus != nullptr)
    options_.bus->publish({.type = EventType::InstanceCreated,
                           .t = engine_.now(),
                           .app = app,
                           .node = node,
                           .instance = inst_id,
                           .machine = inst.alloc.machine,
                           .value = init});
  const bool init_fails =
      options_.faults != nullptr && options_.faults->sample_init_failure();
  f.instances.back().pending =
      engine_.schedule_after(init, [this, app, node, inst_id, init_fails] {
        if (init_fails)
          on_init_failed(app, node, inst_id);
        else
          on_init_done(app, node, inst_id);
      });
  return &f.instances.back();
}

void Platform::on_init_done(AppId app, dag::NodeId node, InstanceId instance_id) {
  auto& f = table_.fn(app, node);
  auto it = std::find_if(f.instances.begin(), f.instances.end(),
                         [&](const Instance& i) { return i.id == instance_id; });
  if (it == f.instances.end()) return;  // terminated during init (finalize)
  it->pending = 0;
  it->st = InstanceState::Idle;
  f.retry_attempts = 0;  // a live instance ends the cold-start failure streak
  if (options_.bus != nullptr)
    options_.bus->publish({.type = EventType::InstanceReady,
                           .t = engine_.now(),
                           .t2 = it->created,
                           .app = app,
                           .node = node,
                           .instance = instance_id,
                           .machine = it->alloc.machine});
  on_instance_idle(app, node, instance_id);
}

void Platform::on_init_failed(AppId app, dag::NodeId node, InstanceId instance_id) {
  auto& f = table_.fn(app, node);
  auto it = std::find_if(f.instances.begin(), f.instances.end(),
                         [&](const Instance& i) { return i.id == instance_id; });
  if (it == f.instances.end()) return;  // evicted or finalized meanwhile
  it->pending = 0;
  ++ledger_.fn(app, node).init_failures;
  if (options_.bus != nullptr)
    options_.bus->publish({.type = EventType::InstanceInitFailed,
                           .t = engine_.now(),
                           .t2 = it->created,
                           .app = app,
                           .node = node,
                           .instance = instance_id,
                           .machine = it->alloc.machine});
  // The failed attempt is billed (the provider ran the container) and its
  // grant released.
  retire_accounting(app, node, *it);
  f.instances.erase(it);
  ++f.retry_attempts;
  PlatformView view(*this);
  table_.policy(app).on_instance_failed(app, table_.spec(app), view, node,
                                        InstanceFailure::InitFailure);
  if (f.queue.empty()) return;
  // The counter includes the just-failed attempt, so `>` grants the same
  // budget as the allocation path: the initial attempt plus max_retries
  // retries before giving up.
  if (options_.max_retries >= 0 && f.retry_attempts > options_.max_retries) {
    f.retry_attempts = 0;
    fail_queued(app, node);
    return;
  }
  ++ledger_.fn(app, node).retries;
  if (options_.bus != nullptr)
    options_.bus->publish({.type = EventType::RetryScheduled,
                           .t = engine_.now(),
                           .app = app,
                           .node = node,
                           .count = f.retry_attempts});
  dispatch(app, node);
}

void Platform::on_batch_done(AppId app, dag::NodeId node, InstanceId instance_id,
                             SimTime exec_start) {
  prof::ScopeTimer scope(options_.prof, prof::Site::PoolBatchDone);
  auto& f = table_.fn(app, node);
  auto it = std::find_if(f.instances.begin(), f.instances.end(),
                         [&](const Instance& i) { return i.id == instance_id; });
  SMILESS_CHECK_MSG(it != f.instances.end(), "busy instance vanished");
  it->pending = 0;
  it->st = InstanceState::Idle;

  const std::vector<RequestId>& batch = it->inflight;
  const int batch_n = static_cast<int>(batch.size());
  if (options_.record_traces) {
    for (RequestId r : batch) record_span(app, node, r, exec_start, batch_n);
  }
  if (options_.bus != nullptr) {
    options_.bus->publish({.type = EventType::BatchEnd,
                           .t = engine_.now(),
                           .t2 = exec_start,
                           .app = app,
                           .node = node,
                           .request = batch.front(),
                           .instance = instance_id,
                           .count = batch_n});
    for (RequestId r : batch)
      options_.bus->publish({.type = EventType::InvocationDone,
                             .t = engine_.now(),
                             .t2 = exec_start,
                             .app = app,
                             .node = node,
                             .request = r,
                             .instance = instance_id,
                             .count = batch_n});
  }
  // complete_node readies only successors of `node` (never `node` itself,
  // in a DAG) and calls no policy hook, so this function's instance list,
  // and with it `it` and its batch, cannot change while the loop runs.
  for (RequestId r : batch) complete_node(app, node, r);
  it->inflight.clear();  // keeps the capacity for the instance's next batch
  on_instance_idle(app, node, instance_id);
}

void Platform::on_instance_idle(AppId app, dag::NodeId node, InstanceId instance_id) {
  // Serve any queued work first; the instance may go Busy again.
  dispatch(app, node);

  auto& f = table_.fn(app, node);
  auto it = std::find_if(f.instances.begin(), f.instances.end(),
                         [&](const Instance& i) { return i.id == instance_id; });
  if (it == f.instances.end() || it->st != InstanceState::Idle) return;

  const FunctionPlan& plan = f.plan;

  // Config drift: reap stale-config instances as soon as they are idle,
  // unless they are needed to hold the min_instances floor.
  const int total = static_cast<int>(f.instances.size());
  const bool above_floor = total > plan.min_instances;
  if (!(it->config == plan.config) && above_floor) {
    terminate_instance(app, node, instance_id);
    return;
  }

  // A never-used pre-warmed instance gets the grace window instead of the
  // plain keep-alive: it exists precisely to absorb the next invocation.
  const double effective_keepalive =
      it->served ? plan.keepalive : std::max(plan.keepalive, plan.prewarm_grace);
  if (effective_keepalive <= 0.0 && above_floor) {
    terminate_instance(app, node, instance_id);
    return;
  }
  if (std::isfinite(effective_keepalive)) {
    it->kill_at = engine_.now() + effective_keepalive;
    arm_reap(app, node, *it);
  }
}

void Platform::arm_reap(AppId app, dag::NodeId node, Instance& inst) {
  if (inst.kill_timer != 0) {
    // A timer due no later than kill_at re-arms itself when it fires; only
    // a keep-alive that shrank below it costs a cancel.
    if (inst.kill_timer_at <= inst.kill_at) return;
    engine_.cancel(inst.kill_timer);
  }
  inst.kill_timer_at = inst.kill_at;
  inst.kill_timer = engine_.schedule_at(
      inst.kill_at, [this, app, node, id = inst.id] { on_reap_timer(app, node, id); });
}

void Platform::on_reap_timer(AppId app, dag::NodeId node, InstanceId instance_id) {
  auto& f = table_.fn(app, node);
  auto it = std::find_if(f.instances.begin(), f.instances.end(),
                         [&](const Instance& i) { return i.id == instance_id; });
  if (it == f.instances.end()) return;
  it->kill_timer = 0;
  // Busy, or kept forever since: the next idle transition arms a new timer.
  if (it->st != InstanceState::Idle || !std::isfinite(it->kill_at)) return;
  // Reused since the timer was armed: follow the later reap time.
  if (engine_.now() < it->kill_at) {
    arm_reap(app, node, *it);
    return;
  }
  if (static_cast<int>(f.instances.size()) > f.plan.min_instances)
    terminate_instance(app, node, instance_id);
}

void Platform::retire_accounting(AppId app, dag::NodeId node, const Instance& inst) {
  ledger_.bill_instance(app, node, inst, engine_.now());
  cluster_.release(inst.alloc);
}

void Platform::terminate_instance(AppId app, dag::NodeId node, InstanceId instance_id) {
  auto& f = table_.fn(app, node);
  auto it = std::find_if(f.instances.begin(), f.instances.end(),
                         [&](const Instance& i) { return i.id == instance_id; });
  SMILESS_CHECK(it != f.instances.end());
  SMILESS_CHECK_MSG(it->st != InstanceState::Busy, "cannot terminate a busy instance");

  if (it->kill_timer != 0) engine_.cancel(it->kill_timer);
  if (it->pending != 0) engine_.cancel(it->pending);
  if (options_.bus != nullptr)
    options_.bus->publish({.type = EventType::InstanceTerminated,
                           .t = engine_.now(),
                           .t2 = it->created,
                           .app = app,
                           .node = node,
                           .instance = instance_id,
                           .machine = it->alloc.machine});
  retire_accounting(app, node, *it);
  f.instances.erase(it);
}

}  // namespace smiless::serverless
