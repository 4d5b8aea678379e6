#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <numbers>
#include <sstream>
#include <string>

#include "common/rng.hpp"
#include "fingerprint.hpp"
#include "math/stats.hpp"
#include "predictor/classic.hpp"
#include "predictor/gbt.hpp"
#include "predictor/invocation_classifier.hpp"
#include "predictor/lstm.hpp"
#include "predictor/lstm_regressor.hpp"

namespace smiless::predictor {
namespace {

std::vector<double> sine_series(std::size_t n, double period, double offset = 2.0,
                                double amp = 1.0) {
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i)
    out[i] = offset + amp * std::sin(2.0 * std::numbers::pi * i / period);
  return out;
}

// --- LSTM layer mechanics ----------------------------------------------------

TEST(LstmLayer, ForwardShapeAndDeterminism) {
  Rng r1(1), r2(1);
  LstmLayer a(1, 8, r1), b(1, 8, r2);
  const std::vector<double> seq{0.1, 0.2, 0.3};
  const auto ha = a.forward(seq);
  const auto hb = b.forward(seq);
  ASSERT_EQ(ha.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_DOUBLE_EQ(ha[i], hb[i]);
}

TEST(LstmLayer, HiddenStateBounded) {
  Rng rng(2);
  LstmLayer l(1, 16, rng);
  const std::vector<double> seq(50, 5.0);
  for (double h : l.forward(seq)) {
    EXPECT_LE(std::abs(h), 1.0);  // h = o * tanh(c), both bounded
  }
}

TEST(LstmLayer, BackwardMatchesNumericalGradient) {
  Rng rng(3);
  LstmLayer l(1, 4, rng);
  const std::vector<double> seq{0.3, -0.2, 0.7};
  // Loss = sum of final hidden units; dL/dh = ones.
  l.forward(seq);
  const std::vector<double> dh(4, 1.0);
  LstmGrads g;
  l.backward(dh, g);

  // Numerical check on a few weight entries.
  const double eps = 1e-6;
  auto loss = [&]() {
    const auto h = l.forward(seq);
    double s = 0.0;
    for (double v : h) s += v;
    return s;
  };
  for (std::size_t r = 0; r < 3; ++r) {
    double& w = l.wx()(r, 0);
    const double orig = w;
    w = orig + eps;
    const double lp = loss();
    w = orig - eps;
    const double lm = loss();
    w = orig;
    EXPECT_NEAR((lp - lm) / (2 * eps), g.d_wx(r, 0), 1e-4);
  }
  for (std::size_t r = 0; r < 3; ++r) {
    double& b = l.bias()[r];
    const double orig = b;
    b = orig + eps;
    const double lp = loss();
    b = orig - eps;
    const double lm = loss();
    b = orig;
    EXPECT_NEAR((lp - lm) / (2 * eps), g.d_b[r], 1e-4);
  }
}

TEST(LstmLayer, ParameterCountConsistent) {
  Rng rng(4);
  LstmLayer l(2, 5, rng);
  EXPECT_EQ(l.parameters().size(), l.parameter_count());
  EXPECT_EQ(l.parameter_count(), 4u * 5u * (2u + 5u + 1u));
}

TEST(Adam, DescendsQuadratic) {
  // Minimise (x-3)^2 via Adam updates.
  double x = 0.0;
  std::vector<double*> params{&x};
  Adam adam(1, 0.1);
  for (int i = 0; i < 500; ++i) {
    const std::vector<double> g{2.0 * (x - 3.0)};
    adam.step(params, g);
  }
  EXPECT_NEAR(x, 3.0, 0.05);
}

// --- regressors ---------------------------------------------------------------

TEST(LstmRegressor, LearnsPeriodicSeries) {
  const auto series = sine_series(400, 16.0);
  LstmOptions o;
  o.epochs = 10;
  LstmRegressor reg(o);
  reg.fit(series);
  // One-step predictions over a held-out continuation.
  double err = 0.0;
  int n = 0;
  for (std::size_t t = 340; t < 390; ++t) {
    const std::span<const double> hist(series.data(), t);
    err += std::abs(reg.predict_next(hist) - series[t]);
    ++n;
  }
  EXPECT_LT(err / n, 0.25);  // amplitude is 1.0 around an offset of 2
}

TEST(LstmRegressor, HandlesTooShortHistory) {
  LstmRegressor reg;
  const std::vector<double> tiny{1.0, 2.0};
  reg.fit(tiny);  // not enough to train
  EXPECT_DOUBLE_EQ(reg.predict_next(tiny), 2.0);  // falls back to persistence
  EXPECT_DOUBLE_EQ(reg.predict_next({}), 0.0);
}

TEST(LstmRegressor, AsymmetricLossSuppressesOverestimation) {
  Rng rng(9);
  std::vector<double> noisy(500);
  for (auto& v : noisy) v = std::max(0.1, rng.normal(2.0, 0.5));
  LstmOptions sym;
  sym.epochs = 6;
  LstmOptions asym = sym;
  asym.over_weight = 8.0;  // punish predictions above the truth
  LstmRegressor a(sym), b(asym);
  a.fit(noisy);
  b.fit(noisy);
  std::vector<double> truth, pa, pb;
  for (std::size_t t = 450; t < 495; ++t) {
    const std::span<const double> hist(noisy.data(), t);
    truth.push_back(noisy[t]);
    pa.push_back(a.predict_next(hist));
    pb.push_back(b.predict_next(hist));
  }
  EXPECT_LE(math::overestimation_rate(truth, pb), math::overestimation_rate(truth, pa));
}

TEST(DualLstmRegressor, AuxiliarySeriesHelpsCorrelatedTarget) {
  // Target alternates with a signal fully determined by the auxiliary
  // channel two steps earlier.
  Rng rng(10);
  std::vector<double> aux(500), target(500);
  for (std::size_t i = 0; i < aux.size(); ++i) aux[i] = (i / 8) % 2 == 0 ? 0.0 : 4.0;
  for (std::size_t i = 0; i < target.size(); ++i)
    target[i] = 1.0 + (i >= 2 ? aux[i - 2] : 0.0) + rng.normal(0.0, 0.05);

  LstmOptions o;
  o.epochs = 10;
  DualLstmRegressor dual(o);
  dual.fit(target, aux);
  double err = 0.0;
  int n = 0;
  for (std::size_t t = 450; t < 495; ++t) {
    const std::span<const double> th(target.data(), t);
    const std::span<const double> ah(aux.data(), t);
    err += std::abs(dual.predict_next(th, ah) - target[t]);
    ++n;
  }
  EXPECT_LT(err / n, 1.0);
}

TEST(DualLstmRegressor, EmptyHistoryIsSafe) {
  DualLstmRegressor dual;
  EXPECT_DOUBLE_EQ(dual.predict_next({}, {}), 0.0);
}

// --- classifier ----------------------------------------------------------------

TEST(InvocationClassifier, PredictsUpperBoundOfBucket) {
  // Alternating load 1 / 5 with period 8 — trivially learnable.
  std::vector<double> counts(400);
  for (std::size_t i = 0; i < counts.size(); ++i) counts[i] = (i / 8) % 2 == 0 ? 1.0 : 5.0;
  InvocationClassifier::Options o;
  o.bucket_size = 2;
  o.lstm.epochs = 10;
  InvocationClassifier cls(o);
  cls.fit(counts);

  int correct = 0, trials = 0;
  for (std::size_t t = 350; t < 395; ++t) {
    const std::span<const double> hist(counts.data(), t);
    const int truth_bucket = static_cast<int>(counts[t]) / o.bucket_size;
    if (cls.predict_bucket(hist) == truth_bucket) ++correct;
    ++trials;
  }
  EXPECT_GT(correct, trials * 7 / 10);
}

TEST(InvocationClassifier, UpperBoundRarelyUnderestimates) {
  Rng rng(11);
  std::vector<double> counts(500);
  for (auto& c : counts) c = std::max(0, rng.poisson(3.0));
  InvocationClassifier::Options o;
  o.bucket_size = 2;
  o.lstm.epochs = 8;
  InvocationClassifier cls(o);
  cls.fit(counts);
  std::vector<double> truth, pred;
  for (std::size_t t = 400; t < 495; ++t) {
    const std::span<const double> hist(counts.data(), t);
    truth.push_back(counts[t]);
    pred.push_back(cls.predict_next(hist));
  }
  // The bucket-upper-bound mapping keeps underestimation low (paper: ~3%).
  EXPECT_LT(math::underestimation_rate(truth, pred), 0.25);
}

TEST(InvocationClassifier, CompensationInflatesPrediction) {
  InvocationClassifier::Options o;
  o.compensation = 0.5;
  InvocationClassifier cls(o);
  const std::vector<double> flat(300, 1.0);
  cls.fit(flat);
  const double p = cls.predict_next(flat);
  // bucket 0 upper bound = 2, +50% = 3.
  EXPECT_NEAR(p, 3.0, 1e-9);
}

// --- classic baselines -----------------------------------------------------------

TEST(Arima, PredictsLinearTrend) {
  std::vector<double> xs(100);
  for (std::size_t i = 0; i < xs.size(); ++i) xs[i] = 2.0 * i + 5.0;
  ArimaPredictor arima(2, 1);
  arima.fit(xs);
  EXPECT_NEAR(arima.predict_next(xs), 2.0 * 100 + 5.0, 0.5);
}

TEST(Arima, ConstantSeriesFallsBackGracefully) {
  const std::vector<double> xs(50, 3.0);
  ArimaPredictor arima(3, 1);
  arima.fit(xs);  // differenced series is all-zero -> rank deficient
  EXPECT_NEAR(arima.predict_next(xs), 3.0, 1e-9);
}

TEST(Fip, TracksPeriodicSignal) {
  const auto xs = sine_series(256, 32.0);
  FipPredictor fip(4);
  fip.fit(xs);
  double err = 0.0;
  int n = 0;
  for (std::size_t t = 128; t < 250; ++t) {
    const std::span<const double> hist(xs.data(), t);
    err += std::abs(fip.predict_next(hist) - xs[t]);
    ++n;
  }
  EXPECT_LT(err / n, 0.6);
}

TEST(Gbt, LearnsLagDependence) {
  // x_t = x_{t-1} * 0.5 + 1 with jitter.
  Rng rng(12);
  std::vector<double> xs{4.0};
  for (int i = 1; i < 400; ++i)
    xs.push_back(0.5 * xs.back() + 1.0 + rng.normal(0.0, 0.02));
  GbtPredictor gbt;
  gbt.fit(xs);
  const double pred = gbt.predict_next(xs);
  const double expected = 0.5 * xs.back() + 1.0;
  EXPECT_NEAR(pred, expected, 0.25);
}

TEST(Gbt, ShortSeriesFallsBackToPersistence) {
  GbtPredictor gbt;
  const std::vector<double> xs{1.0, 2.0, 3.0};
  gbt.fit(xs);
  EXPECT_DOUBLE_EQ(gbt.predict_next(xs), 3.0);
}

TEST(Naive, ReturnsLastValue) {
  NaivePredictor p;
  const std::vector<double> xs{1.0, 9.0};
  EXPECT_DOUBLE_EQ(p.predict_next(xs), 9.0);
}

TEST(MovingAverage, AveragesHorizon) {
  MovingAveragePredictor p(4);
  const std::vector<double> xs{100.0, 2.0, 2.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(p.predict_next(xs), 2.0);
}

// --- parameterised sweeps ---------------------------------------------------

class LstmHiddenSweep : public ::testing::TestWithParam<int> {};

TEST_P(LstmHiddenSweep, LearnsSineAtEveryWidth) {
  const auto series = sine_series(300, 12.0);
  LstmOptions o;
  o.hidden = static_cast<std::size_t>(GetParam());
  o.seq_len = 12;
  o.epochs = 10;
  LstmRegressor reg(o);
  reg.fit(series);
  double err = 0.0;
  int n = 0;
  for (std::size_t t = 260; t < 295; ++t) {
    err += std::abs(reg.predict_next(std::span<const double>(series.data(), t)) - series[t]);
    ++n;
  }
  EXPECT_LT(err / n, 0.35) << "hidden=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Widths, LstmHiddenSweep, ::testing::Values(4, 8, 16, 24));

class GbtDepthSweep : public ::testing::TestWithParam<int> {};

TEST_P(GbtDepthSweep, DeeperTreesNeverBreakLagLearning) {
  Rng rng(31);
  std::vector<double> xs{2.0};
  for (int i = 1; i < 300; ++i) xs.push_back(0.7 * xs.back() + 0.5 + rng.normal(0.0, 0.02));
  GbtPredictor::Options o;
  o.max_depth = GetParam();
  GbtPredictor gbt(o);
  gbt.fit(xs);
  const double expected = 0.7 * xs.back() + 0.5;
  EXPECT_NEAR(gbt.predict_next(xs), expected, 0.3) << "depth=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Depths, GbtDepthSweep, ::testing::Values(1, 2, 3, 5));

class ArimaOrderSweep : public ::testing::TestWithParam<int> {};

TEST_P(ArimaOrderSweep, TrendPredictionStableAcrossOrders) {
  std::vector<double> xs(120);
  for (std::size_t i = 0; i < xs.size(); ++i) xs[i] = 1.5 * static_cast<double>(i) + 4.0;
  ArimaPredictor arima(GetParam(), 1);
  arima.fit(xs);
  EXPECT_NEAR(arima.predict_next(xs), 1.5 * 120 + 4.0, 1.0) << "p=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Orders, ArimaOrderSweep, ::testing::Values(1, 2, 4, 8));

// --- pinned LSTM outputs ------------------------------------------------------
//
// Every double the LSTM layer and the three LSTM predictors return is hashed
// bit for bit (64-bit FNV-1a over each value's IEEE-754 bits) and pinned,
// with the first and last value as hexfloats so a failure shows what moved.
// No other test runs the predictors with `use_lstm` on at full size, so a
// change to src/predictor/ that claims to keep its numbers must leave these
// pins as they are.

/// The final hidden state of a forward pass over `steps`, laid out T×D.
std::vector<double> layer_forward(LstmLayer& layer, const std::vector<double>& steps) {
  const auto h = layer.forward(steps);
  return {h.begin(), h.end()};
}

/// The gradients of the last forward pass given `d_h`, flattened in
/// parameter order (d_wx, d_wh, d_b).
std::vector<double> layer_backward(LstmLayer& layer, const std::vector<double>& d_h) {
  LstmGrads grads;
  layer.backward(d_h, grads);
  std::vector<double> flat;
  LstmLayer::accumulate(flat, grads);
  return flat;
}

/// The bits of a stream of doubles: their count, first and last value and
/// FNV-1a hash.
struct BitStream {
  std::size_t count = 0;
  double first = 0.0;
  double last = 0.0;
  std::uint64_t hash = 0xcbf29ce484222325ULL;

  void add(double v) {
    char bytes[sizeof v];
    std::memcpy(bytes, &v, sizeof v);
    hash = fnv1a(std::string_view(bytes, sizeof v), hash);
    if (count++ == 0) first = v;
    last = v;
  }
  void add(const std::vector<double>& vs) {
    for (double v : vs) add(v);
  }
};

std::string hexfloat(double v) {
  std::ostringstream os;
  os << std::hexfloat << v;
  return os.str();
}

struct Pin {
  std::size_t count;
  const char* first;
  const char* last;
  std::uint64_t hash;
};

void expect_pinned(const BitStream& got, const Pin& pin) {
  EXPECT_EQ(got.count, pin.count);
  EXPECT_EQ(hexfloat(got.first), pin.first);
  EXPECT_EQ(hexfloat(got.last), pin.last);
  EXPECT_EQ(got.hash, pin.hash) << "hash 0x" << std::hex << got.hash;
}

/// Per-window invocation counts: Poisson load whose rate steps between
/// regimes, with idle stretches (all-zero windows) in between.
std::vector<double> golden_counts(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t phase = (i / 24) % 4;
    const double rate = phase == 0 ? 0.0 : phase == 1 ? 1.5 : phase == 2 ? 6.0 : 3.0;
    out[i] = rate == 0.0 ? 0.0 : static_cast<double>(rng.poisson(rate));
  }
  return out;
}

/// Inter-arrival gaps: exponential around a mean that drifts slowly.
std::vector<double> golden_gaps(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double mean = 1.0 + 0.8 * std::sin(2.0 * std::numbers::pi * i / 40.0);
    out[i] = 0.05 + rng.exponential(1.0 / mean);
  }
  return out;
}

/// The history the i-th of a run of predictions sees: it grows by one value
/// every third call, starting shorter than the default sequence length.
std::size_t golden_history(std::size_t i) { return 3 + i / 3; }

TEST(LstmGolden, LayerForwardAndBackwardArePinned) {
  struct Shape {
    std::size_t d, h;
    Pin pin;
  };
  const Shape shapes[] = {
      {1, 16, {4672, "-0x1.f8c500db2b8dep-2", "0x1.4f14fa665fffep-6", 0xa6964c8a913e9279ULL}},
      {2, 5, {660, "-0x1.20abf467f9ffcp-5", "-0x1.ac3ef51c4a615p-6", 0x0d7bd7ce1fe34509ULL}},
      {3, 1, {84, "0x1.f05f6e52f2126p-5", "0x0p+0", 0x0405871b6d85a2bdULL}},
  };
  for (const Shape& s : shapes) {
    SCOPED_TRACE("D=" + std::to_string(s.d) + " H=" + std::to_string(s.h));
    Rng rng(100 + 10 * s.d + s.h);
    LstmLayer layer(s.d, s.h, rng);
    BitStream out;
    for (int pass = 0; pass < 4; ++pass) {
      std::vector<double> steps(16 * s.d);
      for (double& x : steps) x = rng.normal(0.0, 1.5);
      out.add(layer_forward(layer, steps));
      // Odd passes zero every other output gradient, so whole gate rows of
      // the last step's dz are exactly zero.
      std::vector<double> d_h(s.h);
      for (std::size_t j = 0; j < s.h; ++j)
        d_h[j] = pass % 2 == 1 && j % 2 == 0 ? 0.0 : rng.normal(0.0, 1.0);
      out.add(layer_backward(layer, d_h));
    }
    expect_pinned(out, s.pin);
  }
}

TEST(LstmGolden, ClassifierPredictionsArePinned) {
  InvocationClassifier cls;
  BitStream out;
  // Fit, predict, then fit the same object again on a second series and
  // predict from the same windows: a re-fit must not serve stale results.
  for (const std::uint64_t seed : {41u, 42u}) {
    const auto counts = golden_counts(seed, 200);
    cls.fit(counts);
    for (std::size_t i = 0; i < 150; ++i)
      out.add(cls.predict_next(std::span<const double>(counts.data(), golden_history(i))));
  }
  expect_pinned(out, {300, "0x1.07ae147ae147bp+1", "0x1.07ae147ae147bp+3", 0xf2120857cd847959ULL});
}

TEST(LstmGolden, RegressorPredictionsArePinned) {
  LstmOptions o;
  o.over_weight = 4.0;  // the asymmetric loss branch
  LstmRegressor reg(o);
  BitStream out;
  for (const std::uint64_t seed : {51u, 52u}) {
    const auto gaps = golden_gaps(seed, 160);
    reg.fit(gaps);
    for (std::size_t i = 0; i < 150; ++i)
      out.add(reg.predict_next(std::span<const double>(gaps.data(), golden_history(i))));
  }
  expect_pinned(out, {300, "0x0p+0", "0x1.d6dbf4068d0d6p-1", 0x0161a95e75029521ULL});
}

TEST(LstmGolden, DualPredictionsArePinned) {
  DualLstmRegressor dual;
  BitStream out;
  for (const std::uint64_t seed : {61u, 62u}) {
    const auto gaps = golden_gaps(seed, 160);
    const auto counts = golden_counts(seed + 100, 160);
    dual.fit(gaps, counts);
    for (std::size_t i = 0; i < 150; ++i) {
      const std::size_t n = golden_history(i);
      out.add(dual.predict_next(std::span<const double>(gaps.data(), n),
                                std::span<const double>(counts.data(), n)));
    }
  }
  expect_pinned(out, {300, "0x1.c7bc4e025ae43p-1", "0x1.2f89bb7fc8f82p+0", 0x4ff3adf0e7f0e2d2ULL});
}

// --- the memo of the last input window ----------------------------------------

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Two epochs: the memo tests compare twins, not accuracy.
LstmOptions quick_lstm() {
  LstmOptions o;
  o.epochs = 2;
  return o;
}

InvocationClassifier::Options quick_classifier() {
  InvocationClassifier::Options o;
  o.lstm = quick_lstm();
  return o;
}

TEST(LstmMemo, RepeatedWindowMatchesAFreshPredictor) {
  // Predicting h1, h2, h1, h1 on one object gives for each call the bits a
  // freshly fitted twin gives for that window alone: the memo keyed by h1
  // never answers for h2 (for the dual predictor, h2 differs from h1 only
  // in its auxiliary tail), nor the one keyed by h2 for h1.
  const auto counts = golden_counts(71, 200);
  const auto gaps = golden_gaps(72, 200);
  const std::vector<double> counts2(counts.rbegin(), counts.rend());
  const std::vector<double> gaps2(gaps.rbegin(), gaps.rend());

  // Runs the four calls on one make() and compares each with a fresh one.
  const auto check = [](const auto& make, const auto& predict, const auto& h1, const auto& h2) {
    const auto p = make();
    const double r1 = predict(*p, h1), r2 = predict(*p, h2), r3 = predict(*p, h1),
                 r4 = predict(*p, h1);
    const double fresh1 = predict(*make(), h1), fresh2 = predict(*make(), h2);
    EXPECT_EQ(bits(r1), bits(fresh1));
    EXPECT_EQ(bits(r2), bits(fresh2));
    EXPECT_EQ(bits(r3), bits(fresh1));
    EXPECT_EQ(bits(r4), bits(fresh1));
  };
  check(
      [&] {
        auto c = std::make_unique<InvocationClassifier>(quick_classifier());
        c->fit(counts);
        return c;
      },
      [](InvocationClassifier& c, const std::vector<double>& h) { return c.predict_next(h); },
      counts, counts2);
  check(
      [&] {
        auto r = std::make_unique<LstmRegressor>(quick_lstm());
        r->fit(gaps);
        return r;
      },
      [](LstmRegressor& r, const std::vector<double>& h) { return r.predict_next(h); }, gaps,
      gaps2);
  check(
      [&] {
        auto d = std::make_unique<DualLstmRegressor>(quick_lstm());
        d->fit(gaps, counts);
        return d;
      },
      [&](DualLstmRegressor& d, const std::vector<double>& aux) {
        return d.predict_next(gaps, aux);
      },
      counts, counts2);
}

TEST(LstmMemo, FitClearsTheMemo) {
  // The same window before and after a re-fit: the second answer comes from
  // the new weights, as it does on a twin that never predicted in between.
  const std::vector<double> ones(60, 1.0), nines(60, 9.0);
  InvocationClassifier cls(quick_classifier()), cls_twin(quick_classifier());
  cls.fit(ones);
  cls_twin.fit(ones);
  const double before = cls.predict_next(nines);
  cls.fit(nines);
  cls_twin.fit(nines);
  const double after = cls.predict_next(nines);
  EXPECT_EQ(bits(after), bits(cls_twin.predict_next(nines)));
  EXPECT_NE(after, before);

  const auto gaps = golden_gaps(81, 120);
  const auto gaps2 = golden_gaps(82, 120);
  const auto counts = golden_counts(83, 120);
  LstmRegressor reg(quick_lstm()), reg_twin(quick_lstm());
  reg.fit(gaps);
  reg_twin.fit(gaps);
  const double reg_before = reg.predict_next(gaps);
  reg.fit(gaps2);
  reg_twin.fit(gaps2);
  const double reg_after = reg.predict_next(gaps);
  EXPECT_EQ(bits(reg_after), bits(reg_twin.predict_next(gaps)));
  EXPECT_NE(reg_after, reg_before);

  DualLstmRegressor dual(quick_lstm()), dual_twin(quick_lstm());
  dual.fit(gaps, counts);
  dual_twin.fit(gaps, counts);
  const double dual_before = dual.predict_next(gaps, counts);
  dual.fit(gaps2, counts);
  dual_twin.fit(gaps2, counts);
  const double dual_after = dual.predict_next(gaps, counts);
  EXPECT_EQ(bits(dual_after), bits(dual_twin.predict_next(gaps, counts)));
  EXPECT_NE(dual_after, dual_before);
}

}  // namespace
}  // namespace smiless::predictor
