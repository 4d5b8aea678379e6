#include "predictor/lstm_regressor.hpp"

#include <algorithm>
#include <cmath>

#include "math/stats.hpp"

namespace smiless::predictor {

namespace {

struct Norm {
  double mean = 0.0;
  double std = 1.0;
  void fit(std::span<const double> xs) {
    mean = math::mean(xs);
    std = math::stddev(xs);
    if (std < 1e-9) std = 1.0;
  }
  double fwd(double x) const { return (x - mean) / std; }
  double inv(double z) const { return z * std + mean; }
};

/// Build (window, next-value) training pairs from a series.
void make_pairs(std::span<const double> s, std::size_t len,
                std::vector<std::size_t>& starts) {
  starts.clear();
  if (s.size() <= len) return;
  for (std::size_t t = len; t < s.size(); ++t) starts.push_back(t - len);
}

/// Normalize s[start, start + window.size()) into `window`.
void fill_window(std::span<const double> s, std::size_t start, const Norm& norm,
                 std::span<double> window) {
  for (std::size_t i = 0; i < window.size(); ++i) window[i] = norm.fwd(s[start + i]);
}

}  // namespace

// ---------------------------------------------------------------------------
// Single-input regressor
// ---------------------------------------------------------------------------

struct LstmRegressor::Impl {
  LstmOptions opts;
  Rng rng;
  LstmLayer lstm;
  std::vector<double> head_w;
  double head_b = 0.0;
  Norm norm;
  bool trained = false;
  // Workspaces reused by every sample, epoch and prediction.
  std::vector<double> tail, window, dh, flat;
  LstmGrads grads;
  WindowMemo<double> memo;  // keyed by the raw tail

  explicit Impl(const LstmOptions& o)
      : opts(o),
        rng(o.seed),
        lstm(1, o.hidden, rng),
        head_w(o.hidden, 0.0),
        tail(o.seq_len),
        window(o.seq_len),
        dh(o.hidden) {
    for (auto& w : head_w) w = rng.uniform(-0.3, 0.3);
  }

  /// The head's output for the final hidden state `h`.
  double head(std::span<const double> h) const {
    double y = head_b;
    for (std::size_t j = 0; j < head_w.size(); ++j) y += head_w[j] * h[j];
    return y;
  }

  void train(std::span<const double> series) {
    memo.clear();
    norm.fit(series);
    std::vector<std::size_t> starts;
    make_pairs(series, opts.seq_len, starts);
    if (starts.empty()) {
      trained = false;
      return;
    }

    auto params = lstm.parameters();
    for (auto& w : head_w) params.push_back(&w);
    params.push_back(&head_b);
    Adam adam(params.size(), opts.learning_rate);
    flat.reserve(params.size());

    for (int epoch = 0; epoch < opts.epochs; ++epoch) {
      std::shuffle(starts.begin(), starts.end(), rng.engine());
      for (std::size_t start : starts) {
        fill_window(series, start, norm, window);
        // `h` views the layer's activation cache, which backward() only reads.
        const auto h = lstm.forward(window);
        const double y = head(h);
        const double target = norm.fwd(series[start + opts.seq_len]);
        const double err = y - target;
        const double w = err > 0.0 ? opts.over_weight : opts.under_weight;
        const double dy = 2.0 * w * err;

        for (std::size_t j = 0; j < opts.hidden; ++j) dh[j] = dy * head_w[j];
        lstm.backward(dh, grads);

        flat.clear();
        LstmLayer::accumulate(flat, grads);
        for (std::size_t j = 0; j < opts.hidden; ++j) flat.push_back(dy * h[j]);
        flat.push_back(dy);
        adam.step(params, flat);
      }
    }
    trained = true;
  }
};

LstmRegressor::LstmRegressor(LstmOptions options) : impl_(std::make_unique<Impl>(options)) {}
LstmRegressor::~LstmRegressor() = default;

void LstmRegressor::fit(std::span<const double> series) { impl_->train(series); }

double LstmRegressor::predict_next(std::span<const double> recent) const {
  Impl& m = *impl_;
  if (!m.trained || recent.empty()) return recent.empty() ? 0.0 : recent.back();
  // The tail is padded on the left with the first value when history is short.
  copy_tail(recent, m.tail);
  if (const double* hit = m.memo.find(m.tail)) return *hit;
  fill_window(m.tail, 0, m.norm, m.window);
  const double y = std::max(0.0, m.norm.inv(m.head(m.lstm.forward(m.window))));
  m.memo.store(m.tail, y);
  return y;
}

// ---------------------------------------------------------------------------
// Dual-input regressor
// ---------------------------------------------------------------------------

struct DualLstmRegressor::Impl {
  LstmOptions opts;
  Rng rng;
  LstmLayer lstm_a;  // primary (inter-arrival) branch
  LstmLayer lstm_b;  // auxiliary (invocation count) branch
  std::vector<double> head_w;  // over tanh(concat(h_a, h_b))
  double head_b = 0.0;
  Norm norm_a, norm_b;
  bool trained = false;
  // Workspaces reused by every sample, epoch and prediction. `tail` holds
  // the primary then the auxiliary raw tail.
  std::vector<double> tail, window_a, window_b, merged, dha, dhb, flat;
  LstmGrads grads_a, grads_b;
  WindowMemo<double> memo;  // keyed by both raw tails

  explicit Impl(const LstmOptions& o)
      : opts(o),
        rng(o.seed),
        lstm_a(1, o.hidden, rng),
        lstm_b(1, o.hidden, rng),
        head_w(2 * o.hidden, 0.0),
        tail(2 * o.seq_len),
        window_a(o.seq_len),
        window_b(o.seq_len),
        merged(2 * o.hidden),
        dha(o.hidden),
        dhb(o.hidden) {
    for (auto& w : head_w) w = rng.uniform(-0.3, 0.3);
  }

  /// The head's output for the normalized inputs in `window_a` and
  /// `window_b`; leaves tanh(concat(h_a, h_b)) in `merged`.
  double forward() {
    const auto ha = lstm_a.forward(window_a);
    const auto hb = lstm_b.forward(window_b);
    for (std::size_t j = 0; j < opts.hidden; ++j) {
      merged[j] = std::tanh(ha[j]);
      merged[opts.hidden + j] = std::tanh(hb[j]);
    }
    double y = head_b;
    for (std::size_t j = 0; j < merged.size(); ++j) y += head_w[j] * merged[j];
    return y;
  }

  void train(std::span<const double> a, std::span<const double> b) {
    SMILESS_CHECK(a.size() == b.size());
    memo.clear();
    norm_a.fit(a);
    norm_b.fit(b);
    std::vector<std::size_t> starts;
    make_pairs(a, opts.seq_len, starts);
    if (starts.empty()) {
      trained = false;
      return;
    }

    auto params = lstm_a.parameters();
    for (double* p : lstm_b.parameters()) params.push_back(p);
    for (auto& w : head_w) params.push_back(&w);
    params.push_back(&head_b);
    Adam adam(params.size(), opts.learning_rate);
    flat.reserve(params.size());

    for (int epoch = 0; epoch < opts.epochs; ++epoch) {
      std::shuffle(starts.begin(), starts.end(), rng.engine());
      for (std::size_t start : starts) {
        fill_window(a, start, norm_a, window_a);
        fill_window(b, start, norm_b, window_b);
        const double y = forward();
        const double target = norm_a.fwd(a[start + opts.seq_len]);
        const double err = y - target;
        const double w = err > 0.0 ? opts.over_weight : opts.under_weight;
        const double dy = 2.0 * w * err;

        // Back through the head and tanh merge into each branch.
        for (std::size_t j = 0; j < opts.hidden; ++j) {
          dha[j] = dy * head_w[j] * (1.0 - merged[j] * merged[j]);
          dhb[j] = dy * head_w[opts.hidden + j] *
                   (1.0 - merged[opts.hidden + j] * merged[opts.hidden + j]);
        }
        lstm_a.backward(dha, grads_a);
        lstm_b.backward(dhb, grads_b);

        flat.clear();
        LstmLayer::accumulate(flat, grads_a);
        LstmLayer::accumulate(flat, grads_b);
        for (std::size_t j = 0; j < merged.size(); ++j) flat.push_back(dy * merged[j]);
        flat.push_back(dy);
        adam.step(params, flat);
      }
    }
    trained = true;
  }
};

DualLstmRegressor::DualLstmRegressor(LstmOptions options)
    : impl_(std::make_unique<Impl>(options)) {}
DualLstmRegressor::~DualLstmRegressor() = default;

void DualLstmRegressor::fit(std::span<const double> primary, std::span<const double> auxiliary) {
  impl_->train(primary, auxiliary);
}

double DualLstmRegressor::predict_next(std::span<const double> recent_primary,
                                       std::span<const double> recent_auxiliary) const {
  Impl& m = *impl_;
  if (!m.trained || recent_primary.empty())
    return recent_primary.empty() ? 0.0 : recent_primary.back();
  const std::size_t len = m.opts.seq_len;
  const std::span<double> tail_a(m.tail.data(), len);
  const std::span<double> tail_b(m.tail.data() + len, len);
  copy_tail(recent_primary, tail_a);
  copy_tail(recent_auxiliary.empty() ? recent_primary : recent_auxiliary, tail_b);
  if (const double* hit = m.memo.find(m.tail)) return *hit;
  fill_window(tail_a, 0, m.norm_a, m.window_a);
  fill_window(tail_b, 0, m.norm_b, m.window_b);
  const double y = std::max(0.0, m.norm_a.inv(m.forward()));
  m.memo.store(m.tail, y);
  return y;
}

}  // namespace smiless::predictor
