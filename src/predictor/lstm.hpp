#pragma once

#include <cstring>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "math/matrix.hpp"

namespace smiless::predictor {

/// Gradients of one LstmLayer (same shapes as the parameters).
struct LstmGrads {
  math::Matrix d_wx, d_wh;
  std::vector<double> d_b;
};

/// A single LSTM layer implemented from scratch: forward over a sequence,
/// full backpropagation-through-time, parameters updated externally (Adam).
/// Gate layout in the stacked weight matrices: rows [0,H) input gate,
/// [H,2H) forget, [2H,3H) cell candidate, [3H,4H) output.
///
/// The activation cache and the backward workspaces are flat members, sized
/// by the longest sequence seen and reused, so a forward or backward pass
/// allocates nothing once the layer has run one sequence of that length.
/// Each gate pre-activation sums in one fixed order (bias, then the input
/// columns ascending, then the hidden columns ascending) and nothing is
/// reassociated, so every output is bit-reproducible.
class LstmLayer {
 public:
  LstmLayer(std::size_t input_dim, std::size_t hidden_dim, Rng& rng);

  std::size_t input_dim() const { return input_dim_; }
  std::size_t hidden_dim() const { return hidden_dim_; }

  /// Run the layer over the T = steps.size() / input_dim steps laid out T×D
  /// in `steps` (step t's input is steps[t*D, (t+1)*D)). Returns a view of
  /// the final hidden state, valid until the next forward(); caches the
  /// activations for backward().
  std::span<const double> forward(std::span<const double> steps);

  /// BPTT given the loss gradient w.r.t. the final hidden state: shapes
  /// `out` like the parameters, zeroes it and fills it with the parameter
  /// gradients. Must follow a forward().
  void backward(std::span<const double> d_h_final, LstmGrads& out);

  /// Flattened parameter access for the optimizer: (wx, wh, b) in order.
  std::vector<double*> parameters();
  static void accumulate(std::vector<double>& flat, const LstmGrads& grads);
  std::size_t parameter_count() const;

  math::Matrix& wx() { return wx_; }
  math::Matrix& wh() { return wh_; }
  std::vector<double>& bias() { return b_; }

 private:
  /// The parameters are reachable through wx()/wh()/bias(), so each pass
  /// checks their shapes once before indexing raw rows.
  void check_shapes() const;

  std::size_t input_dim_;
  std::size_t hidden_dim_;
  math::Matrix wx_;  // 4H x D
  math::Matrix wh_;  // 4H x H
  std::vector<double> b_;

  // Forward cache of the last sequence (steps_ steps): its input (T×D), the
  // four gate activations and tanh(c) (T×H each), and the hidden and cell
  // states ((T+1)×H, row 0 the zero initial state).
  std::size_t steps_ = 0;
  std::vector<double> x_, i_, f_, g_, o_, tanh_c_, h_, c_;
  std::vector<double> z_;  // 4H gate pre-activations of one step
  // Backward workspaces: one step's gate gradients (4H) and the hidden and
  // cell gradients flowing into it and out of it (H each).
  std::vector<double> dz_, dh_, dc_, dh_prev_, dc_prev_;
};

/// Adam optimizer over a flat parameter vector.
class Adam {
 public:
  Adam(std::size_t n, double lr = 1e-2, double beta1 = 0.9, double beta2 = 0.999,
       double eps = 1e-8);

  /// Apply one update: params[i] -= step computed from grads[i].
  void step(std::vector<double*>& params, const std::vector<double>& grads);

 private:
  double lr_, beta1_, beta2_, eps_;
  long t_ = 0;
  std::vector<double> m_, v_;
};

// --- shared by the LSTM predictors -------------------------------------------

/// Fill `tail` with the last tail.size() values of a non-empty `recent`,
/// padded on the left with its first value when it is shorter.
void copy_tail(std::span<const double> recent, std::span<double> tail);

/// The raw input window of a predictor's last forward pass and the result
/// it gave. Between two fits a prediction is a pure function of that
/// window, so a window equal to the stored one bit for bit returns the
/// stored result. Equality is std::memcmp: -0.0 and each NaN payload only
/// ever match themselves.
template <class Result>
class WindowMemo {
 public:
  /// The stored result when `window` equals the stored window, else null.
  const Result* find(std::span<const double> window) const {
    if (!valid_ || window.size() != window_.size() ||
        std::memcmp(window.data(), window_.data(), window.size_bytes()) != 0)
      return nullptr;
    return &result_;
  }
  void store(std::span<const double> window, Result result) {
    window_.assign(window.begin(), window.end());
    result_ = result;
    valid_ = true;
  }
  void clear() { valid_ = false; }

 private:
  bool valid_ = false;
  std::vector<double> window_;
  Result result_{};
};

}  // namespace smiless::predictor
