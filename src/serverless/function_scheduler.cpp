#include "serverless/platform.hpp"

#include <algorithm>
#include <iterator>

#include "common/check.hpp"
#include "faults/fault_injector.hpp"
#include "obs/event_bus.hpp"
#include "prof/profiler.hpp"

// The Platform's batching and dispatch.

namespace smiless::serverless {

using obs::EventType;

std::optional<std::size_t> warm_first_pick(const std::vector<Instance>& instances,
                                           const perf::HwConfig& config) {
  std::optional<std::size_t> fallback;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const Instance& inst = instances[i];
    if (inst.st != InstanceState::Idle) continue;
    if (inst.config == config) return i;
    if (!fallback) fallback = i;
  }
  return fallback;
}

void Platform::enqueue(AppId app, dag::NodeId node, RequestId request) {
  table_.fn(app, node).queue.push_back(request);
  dispatch(app, node);
}

void Platform::dispatch(AppId app, dag::NodeId node) {
  if (table_.finalized()) return;
  prof::ScopeTimer scope(options_.prof, prof::Site::Dispatch);
  FunctionState& f = table_.fn(app, node);

  while (!f.queue.empty()) {
    const std::optional<std::size_t> pick = warm_first_pick(f.instances, f.plan.config);
    if (!pick) break;
    SMILESS_CHECK(*pick < f.instances.size());
    Instance* chosen = &f.instances[*pick];
    SMILESS_CHECK(chosen->st == InstanceState::Idle);

    // Claim the instance and move the batch into it; its inflight list was
    // cleared, capacity intact, when its previous batch completed.
    claim(*chosen);
    const int batch_n =
        std::min<int>(std::max(1, f.plan.max_batch), static_cast<int>(f.queue.size()));
    chosen->inflight.assign(f.queue.begin(), f.queue.begin() + batch_n);
    f.queue.erase(f.queue.begin(), f.queue.begin() + batch_n);

    auto& fm = ledger_.fn(app, node);
    fm.invocations += batch_n;
    fm.batches += 1;

    double latency = table_.spec(app).perf_of(node).sample_inference_time(
        chosen->config, batch_n, options_.inference_noise, rng_);
    if (options_.faults != nullptr) latency = options_.faults->inflate_inference(latency);
    const InstanceId inst_id = chosen->id;
    const SimTime exec_start = engine_.now();
    if (options_.bus != nullptr)
      options_.bus->publish({.type = EventType::BatchStart,
                             .t = exec_start,
                             .app = app,
                             .node = node,
                             .request = chosen->inflight.front(),
                             .instance = inst_id,
                             .machine = chosen->alloc.machine,
                             .count = batch_n});
    chosen->pending = engine_.schedule_after(latency, [this, app, node, inst_id, exec_start] {
      on_batch_done(app, node, inst_id, exec_start);
    });
  }

  if (f.queue.empty()) return;

  // Queue still non-empty: cold-start on demand iff the function has no
  // instance at all (scale-out beyond that is the policy's decision);
  // ensure_capacity runs the bounded-backoff retry ladder behind it.
  ensure_capacity(app, node);
}

void Platform::fail_queued(AppId app, dag::NodeId node) {
  auto& f = table_.fn(app, node);
  while (!f.queue.empty()) {
    const RequestId r = f.queue.front();
    fail_request(app, r);
    if (!f.queue.empty() && f.queue.front() == r) f.queue.pop_front();  // defensive
  }
}

void Platform::strip_request(AppId app, RequestId request) {
  for (auto& f : table_.app(app).fns) {
    for (auto it = f.queue.begin(); it != f.queue.end();)
      it = (*it == request) ? f.queue.erase(it) : std::next(it);
  }
}

}  // namespace smiless::serverless
