// Reproduces Fig. 16: system overhead.
// (a) Strategy Optimizer time vs the longest path length (paper: < 20 ms at
//     12 functions, 10x-100x below other search methods — here exhaustive
//     enumeration and a constrained-shortest-path dynamic program);
// (b) the Auto-scaler's per-function solve time (paper: < 0.1 ms).
// Uses google-benchmark for robust timing, then prints the Fig. 16a series.
// The google-benchmark section also times the Online Predictor's per-window
// cost (BM_LstmPredict*, the LSTM classifier plus the dual-input
// inter-arrival LSTM at the SmilessOptions defaults) and its training
// (BM_LstmFit).
#include <benchmark/benchmark.h>

#include "apps/catalog.hpp"
#include "bench/bench_common.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/autoscaler.hpp"
#include "core/strategy_optimizer.hpp"
#include "core/workflow_manager.hpp"
#include "exp/runner.hpp"
#include "obs/audit.hpp"
#include "predictor/invocation_classifier.hpp"
#include "predictor/lstm_regressor.hpp"

using namespace smiless;

namespace {

std::vector<perf::FunctionPerf> chain_of(std::size_t n) {
  return apps::make_synthetic_pipeline(n, /*sla=*/0.25 * n).truth;
}

void BM_PathSearch(benchmark::State& state) {
  const auto chain = chain_of(static_cast<std::size_t>(state.range(0)));
  const double sla = 0.25 * static_cast<double>(state.range(0));
  core::StrategyOptimizer opt;
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt.optimize_chain(chain, 2.0, sla));
  }
}
BENCHMARK(BM_PathSearch)->DenseRange(2, 12, 2)->Unit(benchmark::kMicrosecond);

void BM_CspDynamicProgram(benchmark::State& state) {
  const auto chain = chain_of(static_cast<std::size_t>(state.range(0)));
  const double sla = 0.25 * static_cast<double>(state.range(0));
  core::StrategyOptimizer opt;
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt.optimize_chain_cspath(chain, 2.0, sla));
  }
}
BENCHMARK(BM_CspDynamicProgram)->DenseRange(2, 12, 2)->Unit(benchmark::kMicrosecond);

void BM_Exhaustive(benchmark::State& state) {
  const auto chain = chain_of(static_cast<std::size_t>(state.range(0)));
  const double sla = 0.25 * static_cast<double>(state.range(0));
  core::StrategyOptimizer opt;
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt.optimize_chain_exhaustive(chain, 2.0, sla));
  }
}
// 15^N nodes: cap at 6 functions to keep the binary brisk.
BENCHMARK(BM_Exhaustive)->DenseRange(2, 6, 2)->Unit(benchmark::kMicrosecond);

void BM_AutoscalerSolve(benchmark::State& state) {
  core::AutoScaler as(perf::default_config_space(), perf::Pricing{});
  const auto& fn = apps::model_by_name("IR");
  for (auto _ : state) {
    benchmark::DoNotOptimize(as.solve(fn, static_cast<int>(state.range(0)), 0.5, 1.0));
  }
}
BENCHMARK(BM_AutoscalerSolve)->Arg(4)->Arg(16)->Arg(64)->Unit(benchmark::kMicrosecond);

void BM_WorkflowManagerFullDag(benchmark::State& state) {
  const auto app = apps::make_amber_alert();
  core::WorkflowManager wm{core::StrategyOptimizer{}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(wm.optimize(app.dag, app.truth, 2.0, app.sla));
  }
}
BENCHMARK(BM_WorkflowManagerFullDag)->Unit(benchmark::kMicrosecond);

// --- Online Predictor (§IV-B) -------------------------------------------------
//
// The two LSTM predictors SmilessPolicy consults every window, at its
// defaults: the invocation classifier fitted on 240 windows of counts (its
// train_after) and the dual-input inter-arrival predictor on 300 gaps.

constexpr std::size_t kCountWindows = 240;
constexpr std::size_t kGaps = 300;
constexpr std::size_t kHistory = 4096;  ///< series length the predict benches slide over

struct PredictorSeries {
  std::vector<double> counts, gaps, aux;

  PredictorSeries() : counts(kHistory), gaps(kHistory), aux(kHistory) {
    Rng rng(7);
    for (std::size_t i = 0; i < kHistory; ++i) {
      counts[i] = 1.0 + rng.poisson(3.0);
      gaps[i] = 0.05 + rng.exponential(3.0);
      aux[i] = counts[i];
    }
  }
};

const PredictorSeries& predictor_series() {
  static const PredictorSeries series;
  return series;
}

struct FittedPredictors {
  predictor::InvocationClassifier classifier;
  predictor::DualLstmRegressor dual;

  FittedPredictors() {
    const auto& s = predictor_series();
    classifier.fit(std::span<const double>(s.counts.data(), kCountWindows));
    dual.fit(std::span<const double>(s.gaps.data(), kGaps),
             std::span<const double>(s.aux.data(), kGaps));
  }
};

FittedPredictors& fitted_predictors() {
  // detlint:allow(global-state) fitted once per process (about a second); benchmarks run serially
  static FittedPredictors fitted;
  return fitted;
}

/// One window's predictions over the first `n` values of each series.
double predict_window(FittedPredictors& p, std::size_t n) {
  const auto& s = predictor_series();
  return p.classifier.predict_next(std::span<const double>(s.counts.data(), n)) +
         p.dual.predict_next(std::span<const double>(s.gaps.data(), n),
                             std::span<const double>(s.aux.data(), n));
}

void BM_LstmPredict(benchmark::State& state) {
  auto& p = fitted_predictors();
  // The history grows by one value every call, so no call sees the window
  // of the call before it.
  std::size_t n = 32;
  for (auto _ : state) {
    benchmark::DoNotOptimize(predict_window(p, n));
    n = n + 1 < kHistory ? n + 1 : 32;
  }
}
BENCHMARK(BM_LstmPredict)->Unit(benchmark::kMicrosecond);

void BM_LstmPredictRepeat(benchmark::State& state) {
  auto& p = fitted_predictors();
  // The same window every call: no new gap arrived and the count tail
  // repeated, as in an idle stretch.
  for (auto _ : state) benchmark::DoNotOptimize(predict_window(p, 64));
}
BENCHMARK(BM_LstmPredictRepeat)->Unit(benchmark::kMicrosecond);

void BM_LstmFit(benchmark::State& state) {
  const auto& s = predictor_series();
  for (auto _ : state) {
    predictor::InvocationClassifier classifier;
    classifier.fit(std::span<const double>(s.counts.data(), kCountWindows));
    predictor::DualLstmRegressor dual;
    dual.fit(std::span<const double>(s.gaps.data(), kGaps),
             std::span<const double>(s.aux.data(), kGaps));
    benchmark::DoNotOptimize(classifier.predict_next(s.counts));
  }
}
BENCHMARK(BM_LstmFit)->Unit(benchmark::kMillisecond);

}  // namespace

int bench_main(int argc, char** argv) {
  // Fig. 16a companion table: search-space nodes explored per method.
  std::cout << "=== Fig. 16a: nodes explored vs longest path length ===\n";
  TextTable table({"path length", "path search", "CSP dynamic program", "exhaustive"});
  core::StrategyOptimizer opt;
  for (std::size_t n = 2; n <= 12; n += 2) {
    const auto chain = chain_of(n);
    const double sla = 0.25 * static_cast<double>(n);
    const auto fast = opt.optimize_chain(chain, 2.0, sla);
    const auto dp = opt.optimize_chain_cspath(chain, 2.0, sla);
    const std::string exhaustive =
        n <= 6 ? std::to_string(opt.optimize_chain_exhaustive(chain, 2.0, sla).nodes_explored)
               : "15^" + std::to_string(n);
    table.add_row({std::to_string(n), std::to_string(fast.nodes_explored),
                   std::to_string(dp.nodes_explored), exhaustive});
  }
  table.print();
  // §V-C1 discusses why the paper ships top-1: wider beams explore more
  // nodes for marginal cost gains. Quantify that trade-off.
  std::cout << "\n=== top-K trade-off (8-function chain, SLA 2 s) ===\n";
  TextTable topk({"K", "cost ($1e-4/invocation)", "nodes explored"});
  const auto chain8 = chain_of(8);
  for (int k : {1, 2, 4, 8, 16}) {
    core::OptimizerOptions oo;
    oo.top_k = k;
    core::StrategyOptimizer ok(oo);
    const auto sol = ok.optimize_chain(chain8, 2.0, 2.0);
    topk.add_row({std::to_string(k), TextTable::num(sol.cost * 1e4, 3),
                  std::to_string(sol.nodes_explored)});
  }
  topk.print();

  // Fig. 16 headline number in situ: run a short end-to-end simulation with
  // the audit log attached and report the policy's *self-profiled* solver
  // time — every reoptimize/autoscale solve as it happened inside the
  // serving loop, not a micro-benchmark of the solver in isolation.
  std::cout << "\n=== in-simulation solver overhead (policy self-profiling) ===\n";
  TextTable overhead({"app", "solver calls", "total (ms)", "mean/call (ms)", "decisions"});
  exp::Runner runner({/*threads=*/1, /*policy_threads=*/1});
  for (const std::string app_name : {"wl1", "wl2", "wl3"}) {
    exp::ExperimentConfig cfg;
    cfg.app = app_name;
    cfg.policy = "smiless";
    cfg.use_lstm = false;
    cfg.trace.kind = "regular";
    cfg.trace.interval = 3.0;
    cfg.trace.duration = 120.0;
    // Any non-empty artifact path makes the runner attach a Telemetry; the
    // bench only reads the in-memory audit log and writes nothing.
    cfg.obs.audit_out = "(in-memory)";
    const auto cell =
        exp::Runner::run_cell(cfg, runner.profiles(cfg.profile_seed), runner.policy_pool());
    const obs::AuditLog& audit = cell.telemetry->audit();
    const double total_ms = kMillisPerSecond * audit.total_solver_seconds();
    const double per_call =
        audit.solver_calls() == 0 ? 0.0
                                  : total_ms / static_cast<double>(audit.solver_calls());
    overhead.add_row({app_name, std::to_string(audit.solver_calls()),
                      TextTable::num(total_ms, 3), TextTable::num(per_call, 3),
                      std::to_string(audit.records().size())});
  }
  overhead.print();

  std::cout << "\n=== wall-clock timings (google-benchmark) ===\n";

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

int main(int argc, char** argv) { return bench::guarded_main(argc, argv, bench_main); }
