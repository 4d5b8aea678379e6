#include "faults/fault_io.hpp"

#include <cstddef>
#include <string>
#include <string_view>

namespace smiless::faults {

json::Value to_json(const FaultSpec& spec) {
  json::Value v = json::Value::object();
  v["init_failure_prob"] = spec.init_failure_prob;
  v["straggler_prob"] = spec.straggler_prob;
  v["straggler_factor"] = spec.straggler_factor;
  v["crash_rate"] = spec.crash_rate;
  v["mttr"] = spec.mttr;
  v["crash_horizon"] = spec.crash_horizon;
  json::Value crashes = json::Value::array();
  for (const auto& c : spec.crashes) {
    json::Value e = json::Value::object();
    e["machine"] = c.machine;
    e["at"] = c.at;
    e["duration"] = c.duration;
    crashes.push_back(std::move(e));
  }
  v["crashes"] = std::move(crashes);
  v["salt"] = static_cast<long long>(spec.salt);
  return v;
}

FaultSpec fault_spec_from_json(const json::Value& v) {
  json::expect_keys(v, "faults",
                    {"init_failure_prob", "straggler_prob", "straggler_factor", "crash_rate",
                     "mttr", "crash_horizon", "crashes", "salt"});
  FaultSpec spec;
  spec.init_failure_prob = v.get("init_failure_prob", spec.init_failure_prob);
  spec.straggler_prob = v.get("straggler_prob", spec.straggler_prob);
  spec.straggler_factor = v.get("straggler_factor", spec.straggler_factor);
  spec.crash_rate = v.get("crash_rate", spec.crash_rate);
  spec.mttr = v.get("mttr", spec.mttr);
  spec.crash_horizon = v.get("crash_horizon", spec.crash_horizon);
  if (const json::Value* crashes = v.find("crashes")) {
    for (const auto& e : crashes->items("crashes")) {
      json::expect_keys(e, "faults.crashes[" + std::to_string(spec.crashes.size()) + "]",
                        {"machine", "at", "duration"});
      ScheduledCrash c;
      c.machine = e.get("machine", c.machine);
      c.at = e.get("at", c.at);
      c.duration = e.get("duration", c.duration);
      spec.crashes.push_back(c);
    }
  }
  spec.salt = static_cast<std::uint64_t>(v.get("salt", static_cast<long long>(spec.salt)));
  validate(spec);
  return spec;
}

void validate(const FaultSpec& spec) {
  const auto probability = [](std::string_view key, double p) {
    if (!(p >= 0.0 && p <= 1.0)) json::reject(key, "in [0, 1]", p);
  };
  probability("init_failure_prob", spec.init_failure_prob);
  probability("straggler_prob", spec.straggler_prob);
  if (!(spec.straggler_factor >= 1.0))
    json::reject("straggler_factor", ">= 1", spec.straggler_factor);
  if (!(spec.crash_rate >= 0.0)) json::reject("crash_rate", ">= 0", spec.crash_rate);
  if (!(spec.mttr > 0.0)) json::reject("mttr", "> 0", spec.mttr);
  for (std::size_t i = 0; i < spec.crashes.size(); ++i)
    if (!(spec.crashes[i].duration > 0.0))
      json::reject("crashes[" + std::to_string(i) + "].duration", "> 0",
                   spec.crashes[i].duration);
}

}  // namespace smiless::faults
