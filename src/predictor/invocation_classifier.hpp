#pragma once

#include <memory>
#include <span>

#include "predictor/lstm_regressor.hpp"

namespace smiless::predictor {

/// SMIless' Invocation Predictor (§IV-B1): an LSTM classifier over buckets
/// of the invocation count. Predicting the *upper bound* of the chosen
/// bucket (plus a small compensation margin) biases against underestimation,
/// which is what causes SLA violations.
class InvocationClassifier {
 public:
  struct Options {
    LstmOptions lstm;       ///< backbone hyperparameters
    int bucket_size = 2;    ///< == minimum batch size of the app's functions
    int max_buckets = 16;   ///< counts above bucket_size*max_buckets clip
    double compensation = 0.03;  ///< §VII-C2: +3% added to the prediction
  };

  InvocationClassifier() : InvocationClassifier(Options{}) {}
  explicit InvocationClassifier(Options options);
  ~InvocationClassifier();

  /// Train on a per-window invocation-count series; clears the memo of the
  /// last prediction.
  void fit(std::span<const double> counts);

  /// Predicted upper bound for the next window's invocation count.
  ///
  /// Both predictions read the last seq_len values of `recent`; a call
  /// whose raw tail equals the previous call's bit for bit returns the
  /// memoized bucket without a forward pass. Despite the const, they mutate
  /// the classifier's workspaces and memo: never call them concurrently on
  /// one object.
  double predict_next(std::span<const double> recent) const;

  /// Raw class (bucket index) prediction, before the upper-bound mapping.
  int predict_bucket(std::span<const double> recent) const;

  const Options& options() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace smiless::predictor
