// Ablation of the runtime robustness extensions (DESIGN.md §6): each knob
// that deviates from the paper's deterministic formulas is disabled in
// isolation, and the cost / violation impact is measured on the standard
// Azure-like traces plus the Fig. 14 burst window. This quantifies what
// each extension buys under stochastic arrivals.
#include "bench/bench_common.hpp"
#include "core/smiless_policy.hpp"

using namespace smiless;
using namespace smiless::bench;

namespace {

struct Variant {
  std::string name;
  core::SmilessOptions options;
};

std::vector<Variant> variants() {
  std::vector<Variant> out;
  core::SmilessOptions base;
  base.use_lstm = false;
  out.push_back({"full runtime (defaults)", base});

  auto v = base;
  v.sla_margin = 1.0;
  out.push_back({"no SLA planning margin", v});

  v = base;
  v.variability_aware = false;
  out.push_back({"no gap-variability awareness", v});

  v = base;
  v.autoscaler_init_weight = 0.0;
  out.push_back({"pure Eq.(7) scale-out (no init term)", v});

  v = base;
  v.prewarm_hold = 0.0;
  out.push_back({"no Case-I hold (unload instantly)", v});

  v = base;
  v.optimizer.prewarm_margin = 1.0;
  out.push_back({"paper mode boundary (margin = 1)", v});

  v = base;
  v.enable_autoscaler = false;
  out.push_back({"no auto-scaler at all", v});
  return out;
}

/// A cell that runs the SMIless runtime with this variant's options.
exp::ExperimentConfig variant_cell(const Variant& variant, exp::ExperimentConfig cfg) {
  const core::SmilessOptions options = variant.options;
  cfg.label = variant.name;
  cfg.use_lstm = false;
  cfg.policy_override = [options](const exp::CellContext& ctx) {
    return std::make_shared<core::SmilessPolicy>("SMIless", ctx.profiles.for_app(ctx.app),
                                                 options, ctx.pool);
  };
  return cfg;
}

}  // namespace

int bench_main(int argc, char** argv) {
  parse_bench_args(argc, argv);
  const double duration = bench_duration(400.0);
  const auto all = variants();

  // Per variant: three steady preset cells (WL1-3), one burst cell and one
  // sparse near-periodic cell — the regimes where the hold, the variability
  // awareness and the mode margin actually engage. One flat list, one
  // parallel sweep.
  std::vector<exp::ExperimentConfig> cells_cfg;
  for (const auto& variant : all) {
    for (const auto& app : workload_names()) {
      auto cfg = base_config(2.0, duration);
      cfg.app = app;
      cells_cfg.push_back(variant_cell(variant, cfg));
    }
    auto burst = base_config(2.0, 60.0);
    burst.app = "wl3";
    burst.trace.kind = "burst";
    burst.trace.quiet_rate = 0.5;
    burst.trace.peak_rate = 12.0;
    burst.trace.seed = 37;
    cells_cfg.push_back(variant_cell(variant, burst));

    auto sparse = base_config(2.0, duration);
    sparse.app = "wl3";
    sparse.trace.kind = "regular";
    sparse.trace.interval = 10.0;
    sparse.trace.jitter = 0.05;
    sparse.trace.seed = 91;
    cells_cfg.push_back(variant_cell(variant, sparse));
  }
  const auto cells = shared_runner().run(cells_cfg);

  std::cout << "=== Design-choice ablation: cost & violations per disabled extension ===\n";
  TextTable table({"Variant", "steady cost ($)", "steady viol.", "burst cost ($)",
                   "burst viol.", "sparse cost ($)", "sparse viol."});
  const std::size_t per_variant = workload_names().size() + 2;
  for (std::size_t v = 0; v < all.size(); ++v) {
    double steady_cost = 0.0;
    long steady_violated = 0, steady_submitted = 0;
    for (std::size_t j = 0; j < workload_names().size(); ++j) {
      const auto& r = cells[v * per_variant + j].result;
      steady_cost += r.cost;
      steady_violated += static_cast<long>(r.violation_ratio * r.submitted + 0.5);
      steady_submitted += r.submitted;
    }
    const auto& rb = cells[v * per_variant + workload_names().size()].result;
    const auto& rs = cells[v * per_variant + workload_names().size() + 1].result;
    table.add_row({all[v].name, TextTable::num(steady_cost, 4),
                   pct(static_cast<double>(steady_violated) / steady_submitted),
                   TextTable::num(rb.cost, 4), pct(rb.violation_ratio),
                   TextTable::num(rs.cost, 4), pct(rs.violation_ratio)});
  }
  table.print();
  std::cout << "\nEach row disables one extension; the first row is the shipped default.\n";
  return 0;
}

int main(int argc, char** argv) { return bench::guarded_main(argc, argv, bench_main); }
