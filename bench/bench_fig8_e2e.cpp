// Reproduces Fig. 8: (a) overall execution cost of SMIless vs GrandSLAm,
// IceBreaker, Orion, Aquatope and OPT on the three DAG workloads under
// Azure-like traces; (b) the E2E latency distribution per policy.
// Paper shape: SMIless cheapest of the online policies (up to 5.73x under
// IceBreaker, 2.46x under GrandSLAm, ~2x under Orion) with no violations;
// OPT ~1/1.5 of SMIless; Orion/Aquatope violate up to ~40%.
#include "bench/bench_common.hpp"
#include "math/stats.hpp"

using namespace smiless;
using namespace smiless::bench;

int bench_main(int argc, char** argv) {
  parse_bench_args(argc, argv);
  const double duration = bench_duration();

  exp::ExperimentGrid grid;
  grid.base = base_config(2.0, duration);
  grid.policies = headline_policies(/*with_opt=*/true);
  grid.apps = workload_names();

  std::cout << "=== Fig. 8: " << grid.cell_count() << "-cell sweep (trace " << duration
            << " s/app) ===\n";
  const auto cells = shared_runner().run(grid);

  std::cout << "\n=== Fig. 8a: overall execution cost ===\n";
  TextTable cost_table({"Policy", "WL1 ($)", "WL2 ($)", "WL3 ($)", "total ($)", "vs SMIless"});
  double smiless_total = 0.0;
  for (const auto& policy : grid.policies) {
    double total = 0.0;
    for (const auto& app : grid.apps) total += cell_for(cells, policy, app).result.cost;
    if (policy == "smiless") smiless_total = total;
  }
  for (const auto& policy : grid.policies) {
    double total = 0.0;
    std::vector<std::string> row{policy_display(policy)};
    for (const auto& app : grid.apps) {
      const auto& r = cell_for(cells, policy, app).result;
      row.push_back(TextTable::num(r.cost, 4));
      total += r.cost;
    }
    row.push_back(TextTable::num(total, 4));
    row.push_back(TextTable::num(total / smiless_total, 2) + "x");
    cost_table.add_row(row);
  }
  cost_table.print();

  std::cout << "\n=== Fig. 8b: E2E latency distribution across all workloads ===\n";
  TextTable lat_table({"Policy", "p50 (s)", "p90 (s)", "p99 (s)", "max (s)",
                       "SLA violations"});
  for (const auto& policy : grid.policies) {
    std::vector<double> e2e;
    long submitted = 0, violated = 0;
    for (const auto& app : grid.apps) {
      const auto& r = cell_for(cells, policy, app).result;
      e2e.insert(e2e.end(), r.e2e.begin(), r.e2e.end());
      submitted += r.submitted;
      violated += static_cast<long>(r.violation_ratio * r.submitted + 0.5);
    }
    lat_table.add_row({policy_display(policy), TextTable::num(math::tail_latency(e2e, 50), 2),
                       TextTable::num(math::tail_latency(e2e, 90), 2),
                       TextTable::num(math::tail_latency(e2e, 99), 2),
                       TextTable::num(math::tail_latency(e2e, 100), 2),
                       pct(static_cast<double>(violated) / submitted)});
  }
  lat_table.print();

  // The paper's actual deployment: all three applications share the one
  // 8-machine cluster simultaneously (dedicated load generator each), so a
  // policy's fleets contend for cores and GPU slices. Co-location couples
  // the apps inside one engine, so it runs through run_colocated directly;
  // the sweep layer supplies the profiles, traces and solver pool.
  std::cout << "\n=== Fig. 8 (co-located): all workloads on one cluster per policy ===\n";
  TextTable co_table({"Policy", "total ($)", "vs SMIless", "violations"});
  double co_base = 0.0;
  for (const auto& policy : grid.policies) {
    const auto kind = *baselines::parse_policy_kind(policy);
    std::vector<apps::App> workloads;
    std::vector<workload::Trace> traces;
    for (const auto& name : grid.apps) {
      auto cfg = grid.base;
      cfg.app = name;
      workloads.push_back(exp::resolve_app(cfg));
      traces.push_back(exp::build_trace(cfg, workloads.back()));
    }
    std::vector<baselines::ColocatedApp> deployment;
    for (std::size_t i = 0; i < workloads.size(); ++i) {
      baselines::PolicySettings settings;
      settings.pool = shared_runner().policy_pool();
      settings.oracle_trace = &traces[i];
      deployment.push_back({workloads[i], &traces[i],
                            baselines::make_policy(kind, workloads[i],
                                                   shared_runner().profiles(2024), settings)});
    }
    baselines::ExperimentOptions options;
    const auto results_co = baselines::run_colocated(std::move(deployment), options);
    double total = 0.0;
    long violated = 0, submitted = 0;
    for (const auto& r : results_co) {
      total += r.cost;
      violated += static_cast<long>(r.violation_ratio * r.submitted + 0.5);
      submitted += r.submitted;
    }
    if (policy == "smiless") co_base = total;
    co_table.add_row({policy_display(policy), TextTable::num(total, 4),
                      TextTable::num(total / co_base, 2) + "x",
                      pct(static_cast<double>(violated) / submitted)});
  }
  co_table.print();

  std::cout << "\nShape check: SMIless cheapest online policy; OPT below SMIless;\n"
               "IceBreaker/GrandSLAm multiples above; Orion/Aquatope violate heavily.\n";
  return 0;
}

int main(int argc, char** argv) { return bench::guarded_main(argc, argv, bench_main); }
