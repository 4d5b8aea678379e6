// Reproduces Fig. 14: SMIless' adaptation inside a 60-second bursty window.
// (a) the number of pods tracks the number of invocations; (b) the
// CPU-to-GPU instance ratio rises with the invocation count (GPUs batch so
// few GPU instances suffice; scale-out adds CPU pods).
#include "bench/bench_common.hpp"

using namespace smiless;
using namespace smiless::bench;

int bench_main(int argc, char** argv) {
  parse_bench_args(argc, argv);
  auto cfg = base_config(2.0, 60.0);
  cfg.app = "wl3";
  cfg.policy = "smiless";
  cfg.use_lstm = false;
  cfg.trace.kind = "burst";
  cfg.trace.quiet_rate = 0.5;
  cfg.trace.peak_rate = 12.0;
  cfg.trace.seed = 37;
  const auto r =
      shared_runner().run(std::vector<exp::ExperimentConfig>{cfg}).front().result;

  std::cout << "=== Fig. 14: burst window (quiet 0.5 rps -> peak 12 rps -> decay) ===\n";
  TextTable table({"t (s)", "invocations", "pods", "CPU pods", "GPU pods", "CPU:GPU"});
  for (const auto& w : r.windows) {
    if (w.window_start >= 60.0) break;
    const std::string ratio = w.instances_gpu > 0
                                  ? TextTable::num(static_cast<double>(w.instances_cpu) /
                                                       w.instances_gpu, 2)
                                  : (w.instances_cpu > 0 ? "all-CPU" : "-");
    table.add_row({TextTable::num(w.window_start, 0), std::to_string(w.arrivals),
                   std::to_string(w.instances_total), std::to_string(w.instances_cpu),
                   std::to_string(w.instances_gpu), ratio});
  }
  table.print();
  std::cout << "\nBurst summary: " << r.submitted << " requests, violation ratio "
            << pct(r.violation_ratio) << ", cost $" << TextTable::num(r.cost, 4) << "\n"
            << "Shape check: pods track invocations; CPU share grows at the peak.\n";
  return 0;
}

int main(int argc, char** argv) { return bench::guarded_main(argc, argv, bench_main); }
