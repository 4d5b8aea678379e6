#include "obs/telemetry.hpp"

namespace smiless::obs {

Telemetry::Telemetry() {
  bus_.add_sink([this](const Event& e) { on_event(e); });
}

void Telemetry::register_app(int app, std::string name, std::vector<std::string> node_names,
                             double sla) {
  apps_[app] = AppTrackInfo{std::move(name), std::move(node_names)};
  series_.set_app_sla(app, sla);
}

std::string Telemetry::app_label(int app) const {
  const auto it = apps_.find(app);
  if (it != apps_.end() && !it->second.name.empty()) return it->second.name;
  return "app" + std::to_string(app);
}

std::string Telemetry::node_label(int app, int node) const {
  const auto it = apps_.find(app);
  if (it != apps_.end() && node >= 0 &&
      static_cast<std::size_t>(node) < it->second.node_names.size())
    return it->second.node_names[static_cast<std::size_t>(node)];
  return "node" + std::to_string(node);
}

void Telemetry::on_event(const Event& e) {
  series_.on_event(e);  // one branch when the series is disabled
  registry_.count(std::string("events/") + event_type_name(e.type));
  switch (e.type) {
    case EventType::InvocationReady:
      ready_at_[std::make_tuple(e.app, e.node, e.request)] = e.t;
      break;
    case EventType::InvocationDone: {
      const std::string key = app_label(e.app) + "/" + node_label(e.app, e.node);
      registry_.observe("infer/" + key, e.t - e.t2);
      const auto it = ready_at_.find(std::make_tuple(e.app, e.node, e.request));
      if (it != ready_at_.end()) {
        registry_.observe("wait/" + key, e.t2 - it->second);
        ready_at_.erase(it);
      }
      break;
    }
    case EventType::InstanceReady:
      registry_.observe("init/" + app_label(e.app) + "/" + node_label(e.app, e.node),
                        e.t - e.t2);
      break;
    case EventType::RequestCompleted:
      registry_.observe("e2e/" + app_label(e.app), e.t - e.t2);
      break;
    default:
      break;
  }
}

void Telemetry::perfetto_records(int pid_base, const std::string& label,
                                 const json::Sink& sink) const {
  obs::perfetto_records(bus_.events(), apps_, pid_base, label, sink);
}

json::Value Telemetry::perfetto_json(int pid_base, const std::string& label) const {
  return perfetto_trace(bus_.events(), apps_, pid_base, label);
}

json::Value Telemetry::metrics_json() const { return registry_.to_json(); }

json::Value Telemetry::audit_json() const { return audit_.to_json(); }

}  // namespace smiless::obs
