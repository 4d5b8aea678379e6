// Fault-resilience study: goodput and recovery cost per policy under
// injected failures. Sweeps the container init-failure probability and adds
// one mid-run machine crash; every run reports goodput (completed /
// submitted), retries, evictions and timeouts next to the usual cost and
// latency books. Expected shape: at p = 0 every policy reproduces its
// fault-free numbers exactly (same seed, same trajectory); under faults,
// policies with warm fleets (GrandSLAm) ride through init failures while
// cold-start-heavy ones pay retries; goodput should stay >= 99% for SMIless
// at p = 0.05 with one crash.
#include "bench/bench_common.hpp"
#include "math/stats.hpp"

using namespace smiless;
using namespace smiless::bench;

int bench_main(int argc, char** argv) {
  parse_bench_args(argc, argv);
  const double duration = bench_duration(300.0);

  exp::ExperimentGrid grid;
  grid.base = base_config(2.0, duration);
  grid.base.app = "wl3";
  grid.base.use_lstm = false;  // fast statistical predictors; same for all cells
  grid.base.platform.request_timeout = 60.0;  // a stuck request fails, not hangs
  grid.policies = {"smiless", "grandslam", "icebreaker", "orion"};
  grid.init_failure_probs = {0.0, 0.02, 0.05, 0.10};

  // The crash rider is conditional on faults being on, so the p = 0 column
  // stays bit-identical to the fault-free benches: expand the grid, then
  // attach the outage to the faulty cells.
  auto cells_cfg = grid.expand();
  for (auto& cfg : cells_cfg)
    if (cfg.faults.init_failure_prob > 0.0)
      cfg.faults.crashes.push_back({/*machine=*/1, /*at=*/duration / 3, /*duration=*/45.0});

  const auto cells = shared_runner().run(cells_cfg);

  std::cout << "=== Fault resilience: init-failure sweep + one machine crash ===\n";
  std::cout << "app wl3, trace " << duration << " s; crash: machine 1 down at t="
            << duration / 3 << " for 45 s (except the p=0 rows, which are fault-free)\n\n";

  TextTable table({"policy", "init p", "goodput", "failed", "cost ($)", "p99 E2E (s)",
                   "retries", "evictions", "timeouts", "init fails"});
  for (const auto& cell : cells) {
    const auto& r = cell.result;
    table.add_row({r.policy, TextTable::num(cell.config.faults.init_failure_prob, 2),
                   pct(r.goodput()), std::to_string(r.failed), TextTable::num(r.cost, 4),
                   TextTable::num(math::tail_latency(r.e2e, 99), 2),
                   std::to_string(r.retries), std::to_string(r.evictions),
                   std::to_string(r.timeouts), std::to_string(r.init_failures)});
  }
  table.print();
  std::cout << "\nShape check: p=0 rows match the fault-free benches bit-for-bit; goodput\n"
               "degrades gracefully with p and recovers after the crash window.\n";
  return 0;
}

int main(int argc, char** argv) { return bench::guarded_main(argc, argv, bench_main); }
