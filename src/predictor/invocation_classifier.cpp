#include "predictor/invocation_classifier.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "math/stats.hpp"
#include "predictor/lstm.hpp"

namespace smiless::predictor {

struct InvocationClassifier::Impl {
  Options opts;
  Rng rng;
  LstmLayer lstm;
  math::Matrix head_w;  // K x H
  std::vector<double> head_b;
  int classes = 2;
  double norm_mean = 0.0, norm_std = 1.0;
  bool trained = false;
  // Workspaces reused by every sample, epoch and prediction; `z` holds the
  // logits (then, in training, the softmax) of the first `classes` buckets.
  std::vector<double> tail, window, z, dz, dh, flat;
  LstmGrads grads;
  WindowMemo<int> memo;  // keyed by the raw tail

  explicit Impl(const Options& o)
      : opts(o),
        rng(o.lstm.seed),
        lstm(1, o.lstm.hidden, rng),
        head_w(o.max_buckets, o.lstm.hidden),
        head_b(o.max_buckets, 0.0),
        tail(o.lstm.seq_len),
        window(o.lstm.seq_len),
        z(o.max_buckets),
        dz(o.max_buckets),
        dh(o.lstm.hidden) {
    SMILESS_CHECK(o.bucket_size >= 1 && o.max_buckets >= 2);
    for (std::size_t r = 0; r < head_w.rows(); ++r)
      for (std::size_t c = 0; c < head_w.cols(); ++c) head_w(r, c) = rng.uniform(-0.3, 0.3);
  }

  int bucket_of(double count) const {
    const int b = static_cast<int>(count) / opts.bucket_size;
    return std::min(b, classes - 1);
  }

  /// Normalize s[start, start + seq_len) into `window`.
  void fill_window(std::span<const double> s, std::size_t start) {
    for (std::size_t i = 0; i < window.size(); ++i)
      window[i] = (s[start + i] - norm_mean) / norm_std;
  }

  /// The logits of the final hidden state `h`, into z[0, classes).
  void logits(std::span<const double> h) {
    for (int k = 0; k < classes; ++k) {
      const double* row = head_w.data() + static_cast<std::size_t>(k) * head_w.cols();
      double acc = head_b[k];
      for (std::size_t j = 0; j < h.size(); ++j) acc += row[j] * h[j];
      z[k] = acc;
    }
  }

  /// Softmax of z[0, classes), in place.
  void softmax() {
    const double m = *std::max_element(z.begin(), z.begin() + classes);
    double sum = 0.0;
    for (int k = 0; k < classes; ++k) {
      z[k] = std::exp(z[k] - m);
      sum += z[k];
    }
    for (int k = 0; k < classes; ++k) z[k] /= sum;
  }

  void train(std::span<const double> counts) {
    memo.clear();
    if (counts.size() <= opts.lstm.seq_len + 1) {
      trained = false;
      return;
    }
    norm_mean = math::mean(counts);
    norm_std = std::max(1e-9, math::stddev(counts));

    // Class count: enough buckets to cover the observed maximum.
    double max_c = 0.0;
    for (double c : counts) max_c = std::max(max_c, c);
    classes = std::clamp(static_cast<int>(max_c) / opts.bucket_size + 1, 2, opts.max_buckets);

    std::vector<std::size_t> starts;
    for (std::size_t t = opts.lstm.seq_len; t < counts.size(); ++t)
      starts.push_back(t - opts.lstm.seq_len);

    auto params = lstm.parameters();
    for (int k = 0; k < classes; ++k)
      for (std::size_t j = 0; j < head_w.cols(); ++j) params.push_back(&head_w(k, j));
    for (int k = 0; k < classes; ++k) params.push_back(&head_b[k]);
    Adam adam(params.size(), opts.lstm.learning_rate);
    flat.reserve(params.size());

    const std::size_t hidden = opts.lstm.hidden;
    for (int epoch = 0; epoch < opts.lstm.epochs; ++epoch) {
      std::shuffle(starts.begin(), starts.end(), rng.engine());
      for (std::size_t start : starts) {
        fill_window(counts, start);
        // `h` views the layer's activation cache, which backward() only reads.
        const auto h = lstm.forward(window);
        logits(h);
        softmax();
        const int target = bucket_of(counts[start + opts.lstm.seq_len]);

        // Cross-entropy gradient dz_k = p_k - [k == target].
        for (int k = 0; k < classes; ++k) dz[k] = z[k] - (k == target ? 1.0 : 0.0);

        std::fill(dh.begin(), dh.end(), 0.0);
        for (int k = 0; k < classes; ++k) {
          const double* row = head_w.data() + static_cast<std::size_t>(k) * hidden;
          for (std::size_t j = 0; j < hidden; ++j) dh[j] += row[j] * dz[k];
        }
        lstm.backward(dh, grads);

        flat.clear();
        LstmLayer::accumulate(flat, grads);
        for (int k = 0; k < classes; ++k)
          for (std::size_t j = 0; j < hidden; ++j) flat.push_back(dz[k] * h[j]);
        for (int k = 0; k < classes; ++k) flat.push_back(dz[k]);
        adam.step(params, flat);
      }
    }
    trained = true;
  }

  int classify(std::span<const double> recent) {
    if (!trained || recent.empty()) return 0;
    copy_tail(recent, tail);
    if (const int* hit = memo.find(tail)) return *hit;
    fill_window(tail, 0);
    logits(lstm.forward(window));
    const int bucket = static_cast<int>(std::max_element(z.begin(), z.begin() + classes) -
                                        z.begin());
    memo.store(tail, bucket);
    return bucket;
  }
};

InvocationClassifier::InvocationClassifier(Options options)
    : impl_(std::make_unique<Impl>(options)) {}
InvocationClassifier::~InvocationClassifier() = default;

void InvocationClassifier::fit(std::span<const double> counts) { impl_->train(counts); }

int InvocationClassifier::predict_bucket(std::span<const double> recent) const {
  return impl_->classify(recent);
}

double InvocationClassifier::predict_next(std::span<const double> recent) const {
  const int bucket = impl_->classify(recent);
  // Upper bound of the bucket, then the +3% compensation of §VII-C2.
  const double upper = static_cast<double>((bucket + 1) * impl_->opts.bucket_size);
  return upper * (1.0 + impl_->opts.compensation);
}

const InvocationClassifier::Options& InvocationClassifier::options() const {
  return impl_->opts;
}

}  // namespace smiless::predictor
