#include "serverless/request_tracker.hpp"

#include <cmath>

#include "common/check.hpp"
#include "obs/event_bus.hpp"
#include "serverless/app_table.hpp"
#include "serverless/function_scheduler.hpp"
#include "serverless/ledger.hpp"
#include "serverless/platform.hpp"
#include "sim/engine.hpp"

namespace smiless::serverless {

using obs::EventType;

RequestTracker::RequestTracker(sim::Engine& engine, const PlatformOptions& options,
                               AppTable& table, Ledger& ledger)
    : engine_(engine), options_(options), table_(table), ledger_(ledger) {}

RequestId RequestTracker::admit(AppId app) {
  AppState& a = table_.app(app);
  const auto& spec = a.spec;
  RequestState r;
  r.arrival = engine_.now();
  r.pending_preds.resize(spec.dag.size());
  if (options_.record_traces) r.ready_at.assign(spec.dag.size(), 0.0);
  for (std::size_t n = 0; n < spec.dag.size(); ++n)
    r.pending_preds[n] = static_cast<int>(spec.dag.in_degree(static_cast<dag::NodeId>(n)));
  r.sinks_remaining = static_cast<int>(spec.dag.sinks().size());
  a.requests.push_back(std::move(r));
  const auto ridx = static_cast<RequestId>(a.requests.size() - 1);
  if (options_.bus != nullptr)
    options_.bus->publish({.type = EventType::RequestSubmitted,
                           .t = engine_.now(),
                           .app = app,
                           .request = ridx});

  for (dag::NodeId src : spec.dag.sources()) on_node_ready(app, src, ridx);
  return ridx;
}

void RequestTracker::on_node_ready(AppId app, dag::NodeId node, RequestId request) {
  if (options_.record_traces) table_.request(app, request).ready_at[node] = engine_.now();
  if (options_.bus != nullptr)
    options_.bus->publish({.type = EventType::InvocationReady,
                           .t = engine_.now(),
                           .app = app,
                           .node = node,
                           .request = request});
  arm_timeout(app, node, request);
  scheduler_->enqueue(app, node, request);
}

void RequestTracker::arm_timeout(AppId app, dag::NodeId node, RequestId request) {
  if (!std::isfinite(options_.request_timeout)) return;
  auto& r = table_.request(app, request);
  if (r.timeout_ev.empty()) r.timeout_ev.assign(table_.spec(app).dag.size(), 0);
  if (r.timeout_ev[node] != 0) return;  // deadline set at first readiness
  r.timeout_ev[node] =
      engine_.schedule_after(options_.request_timeout, [this, app, node, request] {
        if (table_.finalized()) return;
        auto& rr = table_.request(app, request);
        rr.timeout_ev[node] = 0;
        if (rr.done || rr.failed) return;
        ++ledger_.fn(app, node).timeouts;
        if (options_.bus != nullptr)
          options_.bus->publish({.type = EventType::TimeoutFired,
                                 .t = engine_.now(),
                                 .app = app,
                                 .node = node,
                                 .request = request});
        fail_request(app, request);
      });
}

void RequestTracker::fail_request(AppId app, RequestId request) {
  auto& r = table_.request(app, request);
  if (r.done || r.failed) return;
  r.failed = true;
  ++ledger_.books(app).failed;
  if (options_.bus != nullptr)
    options_.bus->publish({.type = EventType::RequestFailed,
                           .t = engine_.now(),
                           .t2 = r.arrival,
                           .app = app,
                           .request = request});
  for (auto& ev : r.timeout_ev) {
    if (ev != 0) {
      engine_.cancel(ev);
      ev = 0;
    }
  }
  // Strip every queued (not yet executing) invocation of this request; a
  // batch already in flight finishes and is ignored by complete_node.
  scheduler_->strip_request(app, request);
}

void RequestTracker::record_span(AppId app, dag::NodeId node, RequestId request,
                                 SimTime exec_start, int batch_size) {
  auto& r = table_.request(app, request);
  NodeSpan span;
  span.node = node;
  span.ready = r.ready_at[node];
  span.start = exec_start;
  span.end = engine_.now();
  span.batch = batch_size;
  span.cold = span.wait() > 1e-6;
  span.attempt = r.retries;
  r.spans.push_back(span);
}

void RequestTracker::complete_node(AppId app, dag::NodeId node, RequestId request) {
  auto& r = table_.request(app, request);
  if (r.failed) return;  // late completion of a batch holding a failed request
  SMILESS_CHECK(!r.done);
  if (!r.timeout_ev.empty() && r.timeout_ev[node] != 0) {
    engine_.cancel(r.timeout_ev[node]);
    r.timeout_ev[node] = 0;
  }

  const auto& spec = table_.spec(app);
  for (dag::NodeId s : spec.dag.successors(node)) {
    if (--r.pending_preds[s] == 0) on_node_ready(app, s, request);
  }
  if (spec.dag.out_degree(node) == 0) {
    if (--r.sinks_remaining == 0) {
      r.done = true;
      ledger_.books(app).completed.push_back({r.arrival, engine_.now()});
      if (options_.bus != nullptr)
        options_.bus->publish({.type = EventType::RequestCompleted,
                               .t = engine_.now(),
                               .t2 = r.arrival,
                               .app = app,
                               .request = request});
      if (options_.record_traces)
        ledger_.books(app).traces.push_back({r.arrival, engine_.now(), std::move(r.spans)});
    }
  }
}

void RequestTracker::finalize() {
  // Outstanding per-invocation timeout timers die with the run.
  for (AppId app = 0; static_cast<std::size_t>(app) < table_.size(); ++app)
    for (auto& r : table_.app(app).requests)
      for (auto& ev : r.timeout_ev)
        if (ev != 0) {
          engine_.cancel(ev);
          ev = 0;
        }
}

}  // namespace smiless::serverless
