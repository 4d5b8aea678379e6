#include "obs/perfetto.hpp"

#include <algorithm>
#include <set>
#include <tuple>

namespace smiless::obs {

namespace {

constexpr double kUsPerSec = 1e6;

std::string app_name(const std::map<int, AppTrackInfo>& apps, int app) {
  const auto it = apps.find(app);
  if (it != apps.end() && !it->second.name.empty()) return it->second.name;
  return "app" + std::to_string(app);
}

std::string node_name(const std::map<int, AppTrackInfo>& apps, int app, int node) {
  const auto it = apps.find(app);
  if (it != apps.end() && node >= 0 &&
      static_cast<std::size_t>(node) < it->second.node_names.size())
    return it->second.node_names[static_cast<std::size_t>(node)];
  return "node" + std::to_string(node);
}

// Each record appends its members, in the trace format's fixed order, to an
// Object reserved for all of them, so building one never searches its
// members.

json::Value meta_event(const char* what, int pid, int tid, const std::string& name) {
  json::Value::Object v;
  v.reserve(5);
  v.emplace_back("ph", "M");
  v.emplace_back("name", what);
  v.emplace_back("pid", pid);
  if (tid >= 0) v.emplace_back("tid", tid);
  json::Value::Object args;
  args.emplace_back("name", name);
  v.emplace_back("args", json::Value(std::move(args)));
  return json::Value(std::move(v));
}

/// A complete slice's members, with room for an "args" member after them.
json::Value::Object slice_members(const std::string& name, int pid, int tid, double start,
                                  double end) {
  json::Value::Object v;
  v.reserve(7);
  v.emplace_back("ph", "X");
  v.emplace_back("name", name);
  v.emplace_back("pid", pid);
  v.emplace_back("tid", tid);
  v.emplace_back("ts", start * kUsPerSec);
  v.emplace_back("dur", (end - start) * kUsPerSec);
  return v;
}

json::Value slice(const std::string& name, int pid, int tid, double start, double end) {
  return json::Value(slice_members(name, pid, tid, start, end));
}

json::Value instant(const std::string& name, int pid, int tid, double t) {
  json::Value::Object v;
  v.reserve(6);
  v.emplace_back("ph", "i");
  v.emplace_back("name", name);
  v.emplace_back("pid", pid);
  v.emplace_back("tid", tid);
  v.emplace_back("ts", t * kUsPerSec);
  v.emplace_back("s", "t");  // thread-scoped instant
  return json::Value(std::move(v));
}

json::Value flow(const char* ph, long long id, int pid, int tid, double t) {
  json::Value::Object v;
  v.reserve(8);
  v.emplace_back("ph", ph);
  v.emplace_back("cat", "request");
  v.emplace_back("name", "request");
  v.emplace_back("id", id);
  v.emplace_back("pid", pid);
  v.emplace_back("tid", tid);
  v.emplace_back("ts", t * kUsPerSec);
  if (ph[0] == 'f') v.emplace_back("bp", "e");
  return json::Value(std::move(v));
}

}  // namespace

void perfetto_records(const std::vector<Event>& events, const std::map<int, AppTrackInfo>& apps,
                      int pid_base, const std::string& label, const json::Sink& sink) {
  const std::string prefix = label.empty() ? std::string() : label + "/";
  constexpr int kGatewayTid = 1;

  // --- Track discovery (deterministic: sets, not hash maps) ---------------
  std::set<int> machines;
  std::set<int> app_ids;
  // (app, node, instance) -> tid, assigned by sorted order below.
  std::map<std::tuple<int, int, int>, int> instance_tid;
  for (const auto& e : events) {
    if (e.type == EventType::MachineUp || e.type == EventType::MachineDown)
      machines.insert(e.machine);
    if (e.app >= 0) app_ids.insert(e.app);
    if (e.app >= 0 && e.instance >= 0)
      instance_tid.emplace(std::make_tuple(e.app, e.node, e.instance), 0);
  }
  for (const auto& [id, info] : apps) {
    (void)info;
    app_ids.insert(id);
  }
  {
    std::map<int, int> next_tid;  // per app
    for (auto& [key, tid] : instance_tid) {
      const int app = std::get<0>(key);
      auto [it, inserted] = next_tid.emplace(app, 2);
      tid = it->second++;
      (void)inserted;
    }
  }
  const auto app_pid = [&](int app) { return pid_base + 1 + app; };

  // --- Metadata ------------------------------------------------------------
  if (!machines.empty()) {
    sink(meta_event("process_name", pid_base, -1, prefix + "cluster"));
    for (const int m : machines)
      sink(meta_event("thread_name", pid_base, m + 1, "machine " + std::to_string(m)));
  }
  for (const int a : app_ids) {
    sink(meta_event("process_name", app_pid(a), -1, prefix + app_name(apps, a)));
    sink(meta_event("thread_name", app_pid(a), kGatewayTid, "gateway"));
  }
  for (const auto& [key, tid] : instance_tid) {
    const auto [app, node, inst] = key;
    sink(meta_event("thread_name", app_pid(app), tid,
                    node_name(apps, app, node) + "#" + std::to_string(inst)));
  }

  // --- Slices and instants, in event-stream (= simulation) order ----------
  std::map<int, double> down_since;
  for (const auto& e : events) {
    switch (e.type) {
      case EventType::BatchEnd: {
        const int tid = instance_tid.at(std::make_tuple(e.app, e.node, e.instance));
        auto v = slice_members(node_name(apps, e.app, e.node), app_pid(e.app), tid, e.t2, e.t);
        json::Value::Object args;
        args.reserve(2);
        args.emplace_back("batch", e.count);
        args.emplace_back("request", e.request);
        v.emplace_back("args", json::Value(std::move(args)));
        sink(json::Value(std::move(v)));
        break;
      }
      case EventType::InstanceReady: {
        const int tid = instance_tid.at(std::make_tuple(e.app, e.node, e.instance));
        sink(slice("init", app_pid(e.app), tid, e.t2, e.t));
        break;
      }
      case EventType::InstanceInitFailed: {
        const int tid = instance_tid.at(std::make_tuple(e.app, e.node, e.instance));
        sink(slice("init failed", app_pid(e.app), tid, e.t2, e.t));
        break;
      }
      case EventType::InstanceTerminated:
      case EventType::InstanceEvicted: {
        const int tid = instance_tid.at(std::make_tuple(e.app, e.node, e.instance));
        const char* name = e.type == EventType::InstanceEvicted ? "evict" : "terminate";
        sink(instant(name, app_pid(e.app), tid, e.t));
        break;
      }
      case EventType::RequestSubmitted:
        sink(instant("submit #" + std::to_string(e.request), app_pid(e.app), kGatewayTid,
                     e.t));
        break;
      case EventType::RequestCompleted:
        sink(instant("complete #" + std::to_string(e.request), app_pid(e.app), kGatewayTid,
                     e.t));
        break;
      case EventType::RequestFailed:
        sink(instant("fail #" + std::to_string(e.request), app_pid(e.app), kGatewayTid, e.t));
        break;
      case EventType::PrewarmFired:
        sink(instant("prewarm " + node_name(apps, e.app, e.node), app_pid(e.app), kGatewayTid,
                     e.t));
        break;
      case EventType::RetryScheduled:
        sink(instant("retry " + node_name(apps, e.app, e.node), app_pid(e.app), kGatewayTid,
                     e.t));
        break;
      case EventType::TimeoutFired:
        sink(instant("timeout #" + std::to_string(e.request), app_pid(e.app), kGatewayTid,
                     e.t));
        break;
      case EventType::MachineDown:
        down_since[e.machine] = e.t;
        break;
      case EventType::MachineUp: {
        const auto it = down_since.find(e.machine);
        if (it != down_since.end()) {
          sink(slice("down", pid_base, e.machine + 1, it->second, e.t));
          down_since.erase(it);
        }
        break;
      }
      default:
        break;  // PrewarmSkipped / StragglerInjected etc.: counters only
    }
  }
  // Machines still down at end of trace: mark with an instant.
  for (const auto& [machine, since] : down_since)
    sink(instant("down", pid_base, machine + 1, since));

  // --- Flow arrows: one chain per multi-stage request ---------------------
  // (app, request) -> spans as (start, node, instance), collected in event
  // order then sorted by (start, node) so the chain follows DAG execution.
  std::map<std::pair<int, int>, std::vector<std::tuple<double, int, int>>> chains;
  for (const auto& e : events) {
    if (e.type != EventType::InvocationDone) continue;
    chains[{e.app, e.request}].emplace_back(e.t2, e.node, e.instance);
  }
  for (auto& [key, spans] : chains) {
    if (spans.size() < 2) continue;
    std::sort(spans.begin(), spans.end());
    const auto [app, request] = key;
    const long long flow_id =
        static_cast<long long>(app_pid(app)) * 1000000LL + request;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const auto [start, node, inst] = spans[i];
      const int tid = instance_tid.at(std::make_tuple(app, node, inst));
      const char* ph = i == 0 ? "s" : (i + 1 == spans.size() ? "f" : "t");
      sink(flow(ph, flow_id, app_pid(app), tid, start));
    }
  }
}

json::Value perfetto_trace(const std::vector<Event>& events,
                           const std::map<int, AppTrackInfo>& apps, int pid_base,
                           const std::string& label) {
  json::Value out = json::Value::array();
  perfetto_records(events, apps, pid_base, label,
                   [&out](json::Value&& record) { out.push_back(std::move(record)); });
  return out;
}

}  // namespace smiless::obs
