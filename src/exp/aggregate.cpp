#include "exp/aggregate.hpp"

#include <cmath>
#include <map>
#include <sstream>

#include "math/stats.hpp"

namespace smiless::exp {

namespace {

Stat stat_of(const std::vector<double>& xs) {
  Stat s;
  s.mean = math::mean(xs);
  if (xs.size() >= 2)
    s.ci95 = 1.96 * math::stddev(xs) / std::sqrt(static_cast<double>(xs.size()));
  return s;
}

}  // namespace

std::vector<Aggregate> aggregate(const std::vector<CellResult>& cells) {
  struct Group {
    Aggregate agg;
    std::vector<double> costs, violations, goodputs, e2e;
  };
  std::vector<Group> groups;
  // Output order is first-appearance order (groups vector); the index only
  // does keyed lookup, but std::map keeps even accidental iteration
  // deterministic — this feeds the serialized aggregate JSON/CSV directly.
  std::map<std::string, std::size_t> index;

  for (const auto& cell : cells) {
    const std::string key = cell.config.group_key();
    auto [it, inserted] = index.emplace(key, groups.size());
    if (inserted) {
      groups.emplace_back();
      Aggregate& a = groups.back().agg;
      a.label = cell.config.label;
      a.policy = cell.result.policy;
      a.app = cell.result.app;
      a.sla = cell.config.sla;
    }
    Group& g = groups[it->second];
    const baselines::RunResult& r = cell.result;
    ++g.agg.replicates;
    g.agg.submitted += r.submitted;
    g.agg.completed += r.completed;
    g.agg.failed += r.failed;
    g.agg.initializations += r.initializations;
    g.agg.retries += r.retries;
    g.agg.evictions += r.evictions;
    g.agg.timeouts += r.timeouts;
    g.agg.cost_total += r.cost;
    g.costs.push_back(r.cost);
    g.violations.push_back(r.violation_ratio);
    g.goodputs.push_back(r.goodput());
    g.e2e.insert(g.e2e.end(), r.e2e.begin(), r.e2e.end());
  }

  std::vector<Aggregate> out;
  out.reserve(groups.size());
  for (auto& g : groups) {
    g.agg.cost = stat_of(g.costs);
    g.agg.violation_ratio = stat_of(g.violations);
    g.agg.goodput = stat_of(g.goodputs);
    if (!g.e2e.empty()) {
      g.agg.e2e_p50 = math::percentile(g.e2e, 50);
      g.agg.e2e_p99 = math::percentile(g.e2e, 99);
    }
    out.push_back(std::move(g.agg));
  }
  return out;
}

json::Value summary_json(const std::vector<CellResult>& cells,
                         const std::vector<Aggregate>& aggregates,
                         const EmitOptions& options) {
  json::Value doc = json::Value::object();
  doc["cells"] = static_cast<long long>(cells.size());
  doc["groups"] = static_cast<long long>(aggregates.size());

  json::Value aggs = json::Value::array();
  for (const auto& a : aggregates) {
    json::Value v = json::Value::object();
    v["label"] = a.label;
    v["policy"] = a.policy;
    v["app"] = a.app;
    v["sla"] = a.sla;
    v["replicates"] = a.replicates;
    json::Value cost = json::Value::object();
    cost["mean"] = a.cost.mean;
    cost["ci95"] = a.cost.ci95;
    cost["total"] = a.cost_total;
    v["cost"] = std::move(cost);
    json::Value viol = json::Value::object();
    viol["mean"] = a.violation_ratio.mean;
    viol["ci95"] = a.violation_ratio.ci95;
    v["violation_ratio"] = std::move(viol);
    json::Value good = json::Value::object();
    good["mean"] = a.goodput.mean;
    good["ci95"] = a.goodput.ci95;
    v["goodput"] = std::move(good);
    json::Value e2e = json::Value::object();
    e2e["p50"] = a.e2e_p50;
    e2e["p99"] = a.e2e_p99;
    v["e2e"] = std::move(e2e);
    json::Value counts = json::Value::object();
    counts["submitted"] = a.submitted;
    counts["completed"] = a.completed;
    counts["failed"] = a.failed;
    counts["initializations"] = a.initializations;
    counts["retries"] = a.retries;
    counts["evictions"] = a.evictions;
    counts["timeouts"] = a.timeouts;
    v["counts"] = std::move(counts);
    aggs.push_back(std::move(v));
  }
  doc["aggregates"] = std::move(aggs);

  if (options.include_cells) {
    json::Value rows = json::Value::array();
    for (const auto& cell : cells) {
      const baselines::RunResult& r = cell.result;
      json::Value v = json::Value::object();
      v["label"] = cell.config.label;
      v["policy"] = r.policy;
      v["app"] = r.app;
      v["sla"] = cell.config.sla;
      v["seed"] = static_cast<long long>(cell.config.seed);
      v["cost"] = r.cost;
      v["violation_ratio"] = r.violation_ratio;
      v["goodput"] = r.goodput();
      v["e2e_p50"] = math::tail_latency(r.e2e, 50);
      v["e2e_p99"] = math::tail_latency(r.e2e, 99);
      v["submitted"] = r.submitted;
      v["completed"] = r.completed;
      v["failed"] = r.failed;
      v["initializations"] = r.initializations;
      v["retries"] = r.retries;
      v["evictions"] = r.evictions;
      v["timeouts"] = r.timeouts;
      rows.push_back(std::move(v));
    }
    doc["cell_results"] = std::move(rows);
  }
  return doc;
}

std::string summary_csv(const std::vector<Aggregate>& aggregates) {
  std::ostringstream os;
  os << "label,policy,app,sla,replicates,cost_mean,cost_ci95,cost_total,"
        "violation_mean,violation_ci95,goodput_mean,e2e_p50,e2e_p99,"
        "submitted,completed,failed,initializations,retries,evictions,timeouts\n";
  const auto num = [](double v) {
    std::string s = json::Value::format_double(v);
    return s;
  };
  for (const auto& a : aggregates) {
    os << '"' << a.label << "\"," << '"' << a.policy << "\"," << '"' << a.app << "\","
       << num(a.sla) << ',' << a.replicates << ',' << num(a.cost.mean) << ','
       << num(a.cost.ci95) << ',' << num(a.cost_total) << ','
       << num(a.violation_ratio.mean) << ',' << num(a.violation_ratio.ci95) << ','
       << num(a.goodput.mean) << ',' << num(a.e2e_p50) << ',' << num(a.e2e_p99) << ','
       << a.submitted << ',' << a.completed << ',' << a.failed << ',' << a.initializations
       << ',' << a.retries << ',' << a.evictions << ',' << a.timeouts << '\n';
  }
  return os.str();
}

}  // namespace smiless::exp
