// Reproduces the Fig. 3 motivating example: a three-function pipeline with a
// 6.5 s SLA serving two invocations that arrive 2 s apart. Orion plans under
// the perfect-pre-warming assumption and must double instances when the gap
// is short; IceBreaker manages each function in isolation and parks them
// warm on its efficiency-preferred hardware; the optimal co-design uses
// adaptive pre-warming. Paper numbers: optimal is ~37.7% cheaper than Orion
// and IceBreaker lands ~33% above optimal.
#include <limits>

#include "apps/catalog.hpp"
#include "bench/bench_common.hpp"
#include "core/strategy_optimizer.hpp"

using namespace smiless;

namespace {

constexpr double kSla = 6.5;
constexpr double kInterarrival = 2.0;

std::vector<perf::FunctionPerf> pipeline() {
  return {apps::model_by_name("IR"), apps::model_by_name("DB"), apps::model_by_name("TRS")};
}

double chain_latency(const core::ChainSolution& s) { return s.latency; }

}  // namespace

int bench_main(int argc, char** argv) {
  bench::parse_bench_args(argc, argv);
  const perf::Pricing pricing;
  const auto fns = pipeline();

  // --- Orion: perfect-overlap cost model; two concurrent instances per
  // function once the second invocation lands inside T+I.
  core::StrategyOptimizer orion_opt;
  orion_opt.set_cost_model(core::CostModel::AlwaysPrewarm);
  const auto orion = orion_opt.optimize_chain(fns, kInterarrival, kSla);
  double orion_cost = 0.0;
  for (const auto& d : orion.decisions)
    orion_cost += 2.0 * (d.init_time + d.inference_time) * pricing.per_second(d.config);

  // --- IceBreaker: "individually manages the resource configuration and
  // cold-start policy for each function" (§II-C2) — every function
  // independently minimises its own isolated cost of warming up ahead of
  // the window and staying alive through both invocations, with no
  // awareness of the DAG (so no init/inference overlap is exploited).
  double ice_cost = 0.0, ice_latency = 0.0;
  for (const auto& fn : fns) {
    perf::HwConfig best{};
    double best_cost = std::numeric_limits<double>::infinity();
    for (const auto& c : perf::default_config_space()) {
      const double isolated =
          (fn.init_time(c, 3.0) + 2.0 * fn.inference_time(c, 1) + kInterarrival) *
          pricing.per_second(c);
      if (isolated < best_cost) {
        best_cost = isolated;
        best = c;
      }
    }
    ice_cost += best_cost;
    ice_latency += fn.inference_time(best, 1);
  }

  // --- Optimal: exhaustive joint search with adaptive cold-start costs.
  core::StrategyOptimizer adaptive;
  const auto opt = adaptive.optimize_chain_exhaustive(fns, kInterarrival, kSla);
  const double opt_cost = 2.0 * opt.cost;  // two invocations

  std::cout << "=== Fig. 3: two invocations, IT = 2 s, SLA = 6.5 s ===\n";
  TextTable t({"Approach", "cost ($1e-4)", "vs optimal", "E2E latency (s)", "SLA ok"});
  auto row = [&](const std::string& name, double cost, double latency) {
    t.add_row({name, TextTable::num(cost * 1e4, 3), TextTable::num(cost / opt_cost, 2) + "x",
               TextTable::num(latency, 2), latency <= kSla ? "yes" : "NO"});
  };
  row("Orion", orion_cost, chain_latency(orion));
  row("IceBreaker", ice_cost, ice_latency);
  row("Optimal", opt_cost, chain_latency(opt));
  t.print();
  std::cout << "\nPaper shape: Orion ~1.6x optimal (37.7% saving), IceBreaker ~1.33x optimal.\n";
  return 0;
}

int main(int argc, char** argv) { return bench::guarded_main(argc, argv, bench_main); }
