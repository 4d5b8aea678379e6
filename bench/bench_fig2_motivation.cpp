// Reproduces Fig. 2 (and prints Table I): warm/cold inference latency of the
// HAP, TG and TRS models on a 16-core CPU vs a full GPU, with the price
// ratio. Expected shape: ~10x warm speed-up on GPU, but cold-start latency
// on GPU exceeding the CPU's, at a GPU price ~8-16x the CPU's.
#include "apps/catalog.hpp"
#include "bench/bench_common.hpp"
#include "perfmodel/latency_model.hpp"

using namespace smiless;

int main(int argc, char** argv) {
  bench::parse_bench_args(argc, argv);
  const perf::Pricing pricing;
  const perf::HwConfig cpu16{perf::Backend::Cpu, 16, 0};
  const perf::HwConfig gpu100{perf::Backend::Gpu, 0, 100};

  std::cout << "=== Table I: inference model catalog (ground truth anchors) ===\n";
  TextTable catalog({"Function", "cpu1 (s)", "cpu16 (s)", "gpu10 (s)", "gpu100 (s)",
                     "init cpu (s)", "init gpu (s)"});
  for (const auto& fn : apps::model_catalog()) {
    catalog.add_row({fn.name,
                     TextTable::num(fn.inference_time({perf::Backend::Cpu, 1, 0}, 1)),
                     TextTable::num(fn.inference_time(cpu16, 1)),
                     TextTable::num(fn.inference_time({perf::Backend::Gpu, 0, 10}, 1)),
                     TextTable::num(fn.inference_time(gpu100, 1)),
                     TextTable::num(fn.init_cpu.mu, 2), TextTable::num(fn.init_gpu.mu, 2)});
  }
  catalog.print();

  std::cout << "\n=== Fig. 2: warm vs cold latency, 16-core CPU vs full GPU ===\n";
  TextTable fig2({"Model", "CPU warm (s)", "GPU warm (s)", "warm speedup", "CPU cold (s)",
                  "GPU cold (s)", "cold GPU/CPU"});
  for (const auto* name : {"HAP", "TG", "TRS"}) {
    const auto& fn = apps::model_by_name(name);
    const double cw = fn.inference_time(cpu16, 1);
    const double gw = fn.inference_time(gpu100, 1);
    const double cc = fn.init_cpu.mu + cw;
    const double gc = fn.init_gpu.mu + gw;
    fig2.add_row({name, TextTable::num(cw), TextTable::num(gw), TextTable::num(cw / gw, 1) + "x",
                  TextTable::num(cc, 2), TextTable::num(gc, 2),
                  TextTable::num(gc / cc, 2) + "x"});
  }
  fig2.print();

  const double price_ratio =
      pricing.per_second(gpu100) / pricing.per_second(cpu16);
  std::cout << "\nPrice: 16-core CPU $" << 16 * 0.034 << "/h, full GPU $3.06/h ("
            << TextTable::num(price_ratio, 2)
            << "x) — the paper quotes the GPU at ~8-16x the CPU tiers.\n"
            << "Shape check: warm GPU ~10x faster; cold GPU slower than cold CPU.\n";
  return 0;
}
