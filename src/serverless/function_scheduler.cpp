#include "serverless/function_scheduler.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/check.hpp"
#include "faults/fault_injector.hpp"
#include "obs/event_bus.hpp"
#include "prof/profiler.hpp"
#include "serverless/app_table.hpp"
#include "serverless/instance_pool.hpp"
#include "serverless/ledger.hpp"
#include "serverless/platform.hpp"
#include "serverless/request_tracker.hpp"
#include "sim/engine.hpp"

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

FunctionScheduler::FunctionScheduler(sim::Engine& engine, Rng& rng,
                                     const PlatformOptions& options, const AppTable& table,
                                     Ledger& ledger)
    : engine_(engine), rng_(rng), options_(options), table_(table), ledger_(ledger) {}

void FunctionScheduler::wire(RequestTracker* tracker, InstancePool* pool) {
  tracker_ = tracker;
  pool_ = pool;
}

void FunctionScheduler::add_app(std::size_t nodes) {
  apps_.emplace_back();
  apps_.back().resize(nodes);
}

FunctionScheduler::FnQueue& FunctionScheduler::fn(AppId app, dag::NodeId node) {
  SMILESS_CHECK(app >= 0 && static_cast<std::size_t>(app) < apps_.size());
  auto& fns = apps_[app];
  SMILESS_CHECK(node >= 0 && static_cast<std::size_t>(node) < fns.size());
  return fns[node];
}

const FunctionScheduler::FnQueue& FunctionScheduler::fn(AppId app, dag::NodeId node) const {
  SMILESS_CHECK(app >= 0 && static_cast<std::size_t>(app) < apps_.size());
  const auto& fns = apps_[app];
  SMILESS_CHECK(node >= 0 && static_cast<std::size_t>(node) < fns.size());
  return fns[node];
}

void FunctionScheduler::set_plan(AppId app, dag::NodeId node, FunctionPlan plan) {
  fn(app, node).plan = plan;
}

const FunctionPlan& FunctionScheduler::plan(AppId app, dag::NodeId node) const {
  return fn(app, node).plan;
}

void FunctionScheduler::enqueue(AppId app, dag::NodeId node, RequestId request) {
  fn(app, node).queue.push_back(request);
  dispatch(app, node);
}

void FunctionScheduler::push_front(AppId app, dag::NodeId node, RequestId request) {
  fn(app, node).queue.push_front(request);
}

void FunctionScheduler::dispatch(AppId app, dag::NodeId node) {
  if (halted_) return;
  prof::ScopeTimer scope(options_.prof, prof::Site::Dispatch);
  if (prof::Profiler* p = options_.prof;
      p != nullptr && (dispatch_calls_++ & (kSliceSampleInterval - 1)) == 0) {
    const common::SlabStats ss = slice_stats();
    p->sample(engine_.now(), prof::Counter::SliceLive, static_cast<double>(ss.live));
    p->sample(engine_.now(), prof::Counter::SliceBlocks, static_cast<double>(ss.blocks));
  }
  auto& f = fn(app, node);

  while (!f.queue.empty()) {
    std::vector<Instance>& instances = pool_->instances(app, node);
    const std::optional<std::size_t> pick = warm_first_pick(instances, f.plan.config);
    if (!pick) break;
    SMILESS_CHECK(*pick < instances.size());
    Instance* chosen = &instances[*pick];
    SMILESS_CHECK(chosen->st == InstanceState::Idle);

    // Claim the instance and form a batch.
    pool_->claim(*chosen);
    const int batch_n =
        std::min<int>(std::max(1, f.plan.max_batch), static_cast<int>(f.queue.size()));
    std::vector<RequestId> batch = slices_.acquire();
    batch.reserve(batch_n);
    for (int i = 0; i < batch_n; ++i) {
      batch.push_back(f.queue.front());
      f.queue.pop_front();
    }

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
                             .request = batch.front(),
                             .instance = inst_id,
                             .machine = chosen->alloc.machine,
                             .count = batch_n});
    chosen->inflight.assign(batch.begin(), batch.end());  // reuses its capacity
    chosen->pending = engine_.schedule_after(
        latency, [this, app, node, inst_id, exec_start, batch = std::move(batch)]() mutable {
          if (options_.record_traces) {
            for (RequestId r : batch)
              tracker_->record_span(app, node, r, exec_start, static_cast<int>(batch.size()));
          }
          if (options_.bus != nullptr) {
            options_.bus->publish({.type = EventType::BatchEnd,
                                   .t = engine_.now(),
                                   .t2 = exec_start,
                                   .app = app,
                                   .node = node,
                                   .request = batch.front(),
                                   .instance = inst_id,
                                   .count = static_cast<int>(batch.size())});
            for (RequestId r : batch)
              options_.bus->publish({.type = EventType::InvocationDone,
                                     .t = engine_.now(),
                                     .t2 = exec_start,
                                     .app = app,
                                     .node = node,
                                     .request = r,
                                     .instance = inst_id,
                                     .count = static_cast<int>(batch.size())});
          }
          pool_->on_batch_done(app, node, inst_id, std::move(batch));
        });
  }

  if (f.queue.empty()) return;

  // Queue still non-empty: cold-start on demand iff the function has no
  // instance at all (scale-out beyond that is the policy's decision); the
  // pool owns the bounded-backoff retry ladder behind it.
  pool_->ensure_capacity(app, node);
}

void FunctionScheduler::fail_queued(AppId app, dag::NodeId node) {
  auto& f = fn(app, node);
  while (!f.queue.empty()) {
    const RequestId r = f.queue.front();
    tracker_->fail_request(app, r);
    if (!f.queue.empty() && f.queue.front() == r) f.queue.pop_front();  // defensive
  }
}

void FunctionScheduler::strip_request(AppId app, RequestId request) {
  SMILESS_CHECK(app >= 0 && static_cast<std::size_t>(app) < apps_.size());
  for (auto& f : apps_[app]) {
    for (auto it = f.queue.begin(); it != f.queue.end();)
      it = (*it == request) ? f.queue.erase(it) : std::next(it);
  }
}

bool FunctionScheduler::queue_empty(AppId app, dag::NodeId node) const {
  return fn(app, node).queue.empty();
}

std::size_t FunctionScheduler::queue_length(AppId app, dag::NodeId node) const {
  return fn(app, node).queue.size();
}

}  // namespace smiless::serverless
