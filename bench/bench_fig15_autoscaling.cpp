// Reproduces Fig. 15: online scaling decisions inside the bursty window —
// execution cost and SLA violations per policy. Paper shape: Aquatope,
// Orion and IceBreaker cost >= 1.41x SMIless; GrandSLAm is cheapest (its
// fleet cannot scale) but violates ~20%.
#include "bench/bench_common.hpp"

using namespace smiless;
using namespace smiless::bench;

int bench_main(int argc, char** argv) {
  parse_bench_args(argc, argv);
  exp::ExperimentGrid grid;
  grid.base = base_config(2.0, 60.0);
  grid.base.app = "wl3";
  grid.base.use_lstm = false;
  grid.base.trace.kind = "burst";
  grid.base.trace.quiet_rate = 0.5;
  grid.base.trace.peak_rate = 12.0;
  grid.base.trace.seed = 37;
  grid.policies = headline_policies();
  const auto cells = shared_runner().run(grid);

  std::cout << "=== Fig. 15: auto-scaling during the burst window ===\n";
  TextTable table({"Policy", "cost ($)", "vs SMIless", "violations", "peak pods"});
  const double base_cost = cell_for(cells, "smiless", "wl3").result.cost;
  for (const auto& cell : cells) {
    const auto& r = cell.result;
    int peak = 0;
    for (const auto& w : r.windows) peak = std::max(peak, w.instances_total);
    table.add_row({r.policy, TextTable::num(r.cost, 4),
                   TextTable::num(r.cost / base_cost, 2) + "x", pct(r.violation_ratio),
                   std::to_string(peak)});
  }
  table.print();
  std::cout << "\nShape check: SMIless best cost/violation trade-off; rigid fleets either\n"
               "violate (GrandSLAm-style) or overspend (keep-warm policies).\n";
  return 0;
}

int main(int argc, char** argv) { return bench::guarded_main(argc, argv, bench_main); }
