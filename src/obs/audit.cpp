#include "obs/audit.hpp"

namespace smiless::obs {

json::Value DecisionRecord::to_json() const {
  auto v = json::Value::object();
  v["t"] = t;
  v["policy"] = policy;
  v["kind"] = kind;
  v["app"] = app;
  v["interarrival"] = interarrival;
  v["predicted_count"] = predicted_count;
  v["sla"] = sla;
  v["chosen"] = chosen;
  v["prewarm_window"] = prewarm_window;
  v["est_cost"] = est_cost;
  v["feasible"] = feasible;
  v["nodes_explored"] = nodes_explored;
  return v;
}

DecisionRecord DecisionRecord::from_json(const json::Value& v) {
  DecisionRecord r;
  r.t = v.get("t", r.t);
  r.policy = v.get("policy", r.policy);
  r.kind = v.get("kind", r.kind);
  r.app = v.get("app", r.app);
  r.interarrival = v.get("interarrival", r.interarrival);
  r.predicted_count = v.get("predicted_count", r.predicted_count);
  r.sla = v.get("sla", r.sla);
  r.chosen = v.get("chosen", r.chosen);
  r.prewarm_window = v.get("prewarm_window", r.prewarm_window);
  r.est_cost = v.get("est_cost", r.est_cost);
  r.feasible = v.get("feasible", r.feasible);
  r.nodes_explored = static_cast<std::uint64_t>(
      v.get("nodes_explored", static_cast<long long>(r.nodes_explored)));
  return r;
}

void AuditLog::record(DecisionRecord rec) {
  if (rec.kind == "reoptimize" || rec.kind == "autoscale") {
    ++solver_calls_;
    total_solver_seconds_ += rec.solver_seconds;
  }
  records_.push_back(std::move(rec));
}

json::Value AuditLog::to_json() const {
  auto v = json::Value::object();
  auto decisions = json::Value::array();
  for (const auto& r : records_) decisions.push_back(r.to_json());
  v["decisions"] = std::move(decisions);
  return v;
}

AuditLog AuditLog::from_json(const json::Value& v) {
  AuditLog log;
  if (const auto* decisions = v.find("decisions")) {
    for (const auto& d : decisions->items("decisions")) log.record(DecisionRecord::from_json(d));
  }
  return log;
}

}  // namespace smiless::obs
