// Reproduces Fig. 10: total execution cost (a) and SLA violation ratio (b)
// as the SLA target sweeps 1..6 seconds. Paper shape: SMIless cheapest and
// ~violation-free at every setting with costs that barely move across the
// sweep; Orion benefits most from lenient SLAs (gap to SMIless shrinks to
// ~2x beyond 5 s); Aquatope stays cheap but violating.
#include "bench/bench_common.hpp"

using namespace smiless;
using namespace smiless::bench;

int bench_main(int argc, char** argv) {
  parse_bench_args(argc, argv);
  const double duration = bench_duration(400.0);

  exp::ExperimentGrid grid;
  grid.base = base_config(2.0, duration);
  grid.policies = headline_policies();
  grid.apps = workload_names();
  grid.slas = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};

  std::cout << "=== Fig. 10: " << grid.cell_count() << "-cell sweep (trace " << duration
            << " s/app) ===\n";
  const auto cells = shared_runner().run(grid);

  TextTable cost({"SLA (s)", "SMIless", "GrandSLAm", "IceBreaker", "Orion", "Aquatope"});
  TextTable viol({"SLA (s)", "SMIless", "GrandSLAm", "IceBreaker", "Orion", "Aquatope"});
  for (const double sla : grid.slas) {
    std::vector<std::string> cost_row{TextTable::num(sla, 0)};
    std::vector<std::string> viol_row{TextTable::num(sla, 0)};
    for (const auto& policy : grid.policies) {
      double total_cost = 0.0;
      long violated = 0, submitted = 0;
      for (const auto& cell : cells) {
        if (cell.config.policy != policy || cell.config.sla != sla) continue;
        total_cost += cell.result.cost;
        violated +=
            static_cast<long>(cell.result.violation_ratio * cell.result.submitted + 0.5);
        submitted += cell.result.submitted;
      }
      cost_row.push_back(TextTable::num(total_cost, 4));
      viol_row.push_back(pct(static_cast<double>(violated) / submitted));
    }
    cost.add_row(cost_row);
    viol.add_row(viol_row);
  }

  std::cout << "\n=== Fig. 10a: total execution cost ($) vs SLA ===\n";
  cost.print();
  std::cout << "\n=== Fig. 10b: SLA violation ratio vs SLA ===\n";
  viol.print();
  std::cout << "\nShape check: SMIless flat + cheapest + (near) violation-free;\n"
               "Orion's cost gap narrows as the SLA loosens.\n";
  return 0;
}

int main(int argc, char** argv) { return bench::guarded_main(argc, argv, bench_main); }
