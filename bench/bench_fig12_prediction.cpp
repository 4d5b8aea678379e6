// Reproduces Fig. 12: accuracy of the online predictors, trained on the
// first segment of a long trace and evaluated on the rest (the paper trains
// on 1 hour and tests on 21 hours; scale with --duration).
// (a) invocation-number prediction: underestimation rate and MAPE of
//     SMIless' LSTM bucket classifier vs XGBoost, ARIMA and FIP
//     (paper: SMIless ~3% underestimation, best of the four);
// (b) inter-arrival prediction: MAPE and overestimation rate of the
//     dual-input LSTM vs the single-input SMIless-S and the baselines
//     (paper: MAPE 2.45%, overestimation < 0.64%, ~10x under SMIless-S).
#include <memory>

#include "bench/bench_common.hpp"
#include "math/stats.hpp"
#include "predictor/classic.hpp"
#include "predictor/gbt.hpp"
#include "predictor/invocation_classifier.hpp"
#include "predictor/lstm_regressor.hpp"

using namespace smiless;
using namespace smiless::bench;

namespace {

struct Eval {
  double mape = 0.0;
  double under = 0.0;
  double over = 0.0;
};

Eval walk_forward(const predictor::SeriesPredictor& p, std::span<const double> series,
                  std::size_t train_len) {
  std::vector<double> truth, pred;
  for (std::size_t t = train_len; t < series.size(); ++t) {
    truth.push_back(series[t]);
    pred.push_back(p.predict_next(series.subspan(0, t)));
  }
  return {math::mape(truth, pred), math::underestimation_rate(truth, pred),
          math::overestimation_rate(truth, pred)};
}

}  // namespace

int bench_main(int argc, char** argv) {
  parse_bench_args(argc, argv);
  // "1 h train / 21 h test" scaled: 1200 train windows, 4x that for test.
  const auto train_len = static_cast<std::size_t>(bench_duration(1200.0));
  const std::size_t total_len = 5 * train_len;

  Rng rng(99);
  auto options = workload::preset_for_workload("WL2", static_cast<double>(total_len));
  options.burst_start_prob = 0.008;   // variance-to-mean ratio > 2 (§VII-C2)
  options.burst_magnitude = 10.0;
  const auto trace = workload::generate_trace(options, rng);
  const auto counts = trace.counts_as_double();
  std::cout << "Trace: " << counts.size() << " windows, variance-to-mean ratio "
            << TextTable::num(math::variance_to_mean(counts), 2) << " (paper: > 2)\n\n";

  const std::span<const double> count_span(counts);
  const std::span<const double> train = count_span.subspan(0, train_len);

  std::cout << "=== Fig. 12a: invocation-number prediction ===\n";
  TextTable fig_a({"Predictor", "underestimation", "MAPE (%)"});

  {  // SMIless' LSTM bucket classifier (upper-bound + compensation).
    predictor::InvocationClassifier::Options co;
    co.bucket_size = 2;
    predictor::InvocationClassifier cls(co);
    cls.fit(train);
    std::vector<double> truth, pred;
    for (std::size_t t = train_len; t < counts.size(); ++t) {
      truth.push_back(counts[t]);
      pred.push_back(cls.predict_next(count_span.subspan(0, t)));
    }
    fig_a.add_row({"SMIless (LSTM buckets)", pct(math::underestimation_rate(truth, pred)),
                   TextTable::num(math::mape(truth, pred), 1)});
  }
  {
    predictor::GbtPredictor gbt;
    gbt.fit(train);
    const auto e = walk_forward(gbt, count_span, train_len);
    fig_a.add_row({"XGBoost", pct(e.under), TextTable::num(e.mape, 1)});
  }
  {
    predictor::ArimaPredictor arima;
    arima.fit(train);
    const auto e = walk_forward(arima, count_span, train_len);
    fig_a.add_row({"ARIMA", pct(e.under), TextTable::num(e.mape, 1)});
  }
  {
    predictor::FipPredictor fip;
    fip.fit(train);
    const auto e = walk_forward(fip, count_span, train_len);
    fig_a.add_row({"FIP (IceBreaker)", pct(e.under), TextTable::num(e.mape, 1)});
  }
  fig_a.print();

  std::cout << "\n=== Fig. 12b: inter-arrival time prediction ===\n"
            << "(piecewise-regular gaps: production arrival processes are near-periodic\n"
            << " within phases — that regularity is what makes the paper's 2.45% MAPE\n"
            << " possible; i.i.d. Poisson gaps are unpredictable for any model)\n";
  // Phases of 100-300 gaps, each with a fixed interval and 5% jitter; the
  // auxiliary channel (arrival rate proxy) reveals the active phase.
  std::vector<double> gaps, aux;
  {
    Rng grng(123);
    const double intervals[] = {1.5, 3.0, 6.0, 10.0};
    while (gaps.size() < 4000) {
      const double interval = intervals[grng.uniform_int(0, 3)];
      const int len = grng.uniform_int(100, 300);
      for (int i = 0; i < len; ++i) {
        gaps.push_back(grng.truncated_normal(interval, 0.05 * interval, 0.2 * interval));
        aux.push_back(1.0 / interval);
      }
    }
  }
  const std::size_t ia_train = gaps.size() / 5;
  const std::span<const double> gap_span(gaps);
  const std::span<const double> aux_span(aux);

  TextTable fig_b({"Predictor", "MAPE (%)", "overestimation"});
  {
    predictor::LstmOptions lo;
    lo.over_weight = 4.0;  // the paper's design suppresses overestimation
    predictor::DualLstmRegressor dual(lo);
    dual.fit(gap_span.subspan(0, ia_train), aux_span.subspan(0, ia_train));
    std::vector<double> truth, pred;
    for (std::size_t t = ia_train; t < gaps.size(); ++t) {
      truth.push_back(gaps[t]);
      pred.push_back(dual.predict_next(gap_span.subspan(0, t), aux_span.subspan(0, t)));
    }
    fig_b.add_row({"SMIless (dual LSTM)", TextTable::num(math::mape(truth, pred), 1),
                   pct(math::overestimation_rate(truth, pred))});
  }
  {
    predictor::LstmOptions lo;  // symmetric loss, single input — SMIless-S
    predictor::LstmRegressor single(lo);
    single.fit(gap_span.subspan(0, ia_train));
    const auto e = walk_forward(single, gap_span, ia_train);
    fig_b.add_row({"SMIless-S (single LSTM)", TextTable::num(e.mape, 1), pct(e.over)});
  }
  {
    predictor::ArimaPredictor arima;
    arima.fit(gap_span.subspan(0, ia_train));
    const auto e = walk_forward(arima, gap_span, ia_train);
    fig_b.add_row({"ARIMA", TextTable::num(e.mape, 1), pct(e.over)});
  }
  {
    predictor::GbtPredictor gbt;
    gbt.fit(gap_span.subspan(0, ia_train));
    const auto e = walk_forward(gbt, gap_span, ia_train);
    fig_b.add_row({"XGBoost", TextTable::num(e.mape, 1), pct(e.over)});
  }
  {
    predictor::FipPredictor fip;
    fip.fit(gap_span.subspan(0, ia_train));
    const auto e = walk_forward(fip, gap_span, ia_train);
    fig_b.add_row({"FIP (IceBreaker)", TextTable::num(e.mape, 1), pct(e.over)});
  }
  fig_b.print();
  std::cout << "\nShape check: the bucket classifier has the lowest underestimation;\n"
               "the dual-input LSTM overestimates less than SMIless-S.\n";
  return 0;
}

int main(int argc, char** argv) { return bench::guarded_main(argc, argv, bench_main); }
