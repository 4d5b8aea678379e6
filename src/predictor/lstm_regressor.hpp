#pragma once

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "predictor/lstm.hpp"
#include "predictor/series_predictor.hpp"

namespace smiless::predictor {

/// Training hyperparameters shared by the LSTM predictors. The paper uses
/// 30 hidden units (invocation count) and 128 (inter-arrival); defaults here
/// are scaled down so training completes in seconds on CPU while preserving
/// the architecture.
struct LstmOptions {
  std::size_t hidden = 16;
  std::size_t seq_len = 16;
  int epochs = 8;
  double learning_rate = 5e-3;
  /// Asymmetric loss weights (error = pred - truth). Overestimating
  /// inter-arrival times causes late pre-warms and SLA violations, so
  /// over_weight > under_weight for that predictor.
  double over_weight = 1.0;
  double under_weight = 1.0;
  std::uint64_t seed = 7;
};

/// Single-input LSTM regressor (the "SMIless-S" configuration of §VII-C2
/// when used for inter-arrival times).
class LstmRegressor : public SeriesPredictor {
 public:
  explicit LstmRegressor(LstmOptions options = {});
  ~LstmRegressor() override;

  std::string name() const override { return "LSTM"; }
  /// Train on `series`; clears the memo of the last prediction.
  void fit(std::span<const double> series) override;
  /// Predict from the last seq_len values of `recent`. A call whose raw
  /// tail equals the previous call's bit for bit returns the memoized
  /// result without a forward pass. Despite the const, this mutates the
  /// predictor's workspaces and memo: never call it concurrently on one
  /// object.
  double predict_next(std::span<const double> recent) const override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Dual-input LSTM regressor: one LSTM module consumes the inter-arrival
/// series, a second consumes the aligned invocation-count series; their
/// final hidden states are merged, passed through an activation and a
/// linear layer (§IV-B2). This is SMIless' Inter-arrival Time Predictor.
class DualLstmRegressor {
 public:
  explicit DualLstmRegressor(LstmOptions options = {});
  ~DualLstmRegressor();

  /// `primary` is the prediction target series (inter-arrival times);
  /// `auxiliary` must be aligned index-for-index (invocation counts in the
  /// windows preceding each gap). Clears the memo of the last prediction.
  void fit(std::span<const double> primary, std::span<const double> auxiliary);
  /// Predict from the last seq_len values of each series (of the primary
  /// twice when `recent_auxiliary` is empty). A call whose two raw tails
  /// equal the previous call's bit for bit returns the memoized result
  /// without a forward pass. Despite the const, this mutates the
  /// predictor's workspaces and memo: never call it concurrently on one
  /// object.
  double predict_next(std::span<const double> recent_primary,
                      std::span<const double> recent_auxiliary) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace smiless::predictor
