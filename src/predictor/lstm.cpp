#include "predictor/lstm.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>

namespace smiless::predictor {

namespace {
double sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

/// Shape `m` rows x cols and zero it, reusing its storage when the shape
/// already matches.
void zero(math::Matrix& m, std::size_t rows, std::size_t cols) {
  if (m.rows() != rows || m.cols() != cols) {
    m = math::Matrix(rows, cols);
  } else {
    std::fill_n(m.data(), rows * cols, 0.0);
  }
}
}  // namespace

LstmLayer::LstmLayer(std::size_t input_dim, std::size_t hidden_dim, Rng& rng)
    : input_dim_(input_dim),
      hidden_dim_(hidden_dim),
      wx_(4 * hidden_dim, input_dim),
      wh_(4 * hidden_dim, hidden_dim),
      b_(4 * hidden_dim, 0.0) {
  SMILESS_CHECK(input_dim >= 1 && hidden_dim >= 1);
  // Xavier-ish init; forget-gate bias starts positive so early training
  // retains state.
  const double sx = 1.0 / std::sqrt(static_cast<double>(input_dim));
  const double sh = 1.0 / std::sqrt(static_cast<double>(hidden_dim));
  for (std::size_t r = 0; r < 4 * hidden_dim; ++r) {
    for (std::size_t c = 0; c < input_dim; ++c) wx_(r, c) = rng.uniform(-sx, sx);
    for (std::size_t c = 0; c < hidden_dim; ++c) wh_(r, c) = rng.uniform(-sh, sh);
  }
  for (std::size_t h = hidden_dim; h < 2 * hidden_dim; ++h) b_[h] = 1.0;
}

void LstmLayer::check_shapes() const {
  const std::size_t rows = 4 * hidden_dim_;
  SMILESS_CHECK(wx_.rows() == rows && wx_.cols() == input_dim_);
  SMILESS_CHECK(wh_.rows() == rows && wh_.cols() == hidden_dim_);
  SMILESS_CHECK(b_.size() == rows);
}

std::span<const double> LstmLayer::forward(std::span<const double> steps) {
  check_shapes();
  const std::size_t d = input_dim_;
  const std::size_t hd = hidden_dim_;
  const std::size_t rows = 4 * hd;
  SMILESS_CHECK(!steps.empty() && steps.size() % d == 0);
  steps_ = steps.size() / d;
  x_.assign(steps.begin(), steps.end());
  for (auto* v : {&i_, &f_, &g_, &o_, &tanh_c_}) v->resize(steps_ * hd);
  h_.resize((steps_ + 1) * hd);
  c_.resize((steps_ + 1) * hd);
  std::fill_n(h_.begin(), hd, 0.0);
  std::fill_n(c_.begin(), hd, 0.0);
  z_.resize(rows);

  const double* wx = wx_.data();
  const double* wh = wh_.data();
  const double* b = b_.data();
  double* z = z_.data();
  for (std::size_t t = 0; t < steps_; ++t) {
    const double* x = x_.data() + t * d;
    const double* h_prev = h_.data() + t * hd;
    const double* c_prev = c_.data() + t * hd;
    // Four gate rows at a time, one accumulator each (rows is 4H). Each row
    // still sums bias, input columns, then hidden columns, in that order.
    for (std::size_t r = 0; r < rows; r += 4) {
      const double* wx0 = wx + r * d;
      const double* wx1 = wx0 + d;
      const double* wx2 = wx1 + d;
      const double* wx3 = wx2 + d;
      const double* wh0 = wh + r * hd;
      const double* wh1 = wh0 + hd;
      const double* wh2 = wh1 + hd;
      const double* wh3 = wh2 + hd;
      double a0 = b[r], a1 = b[r + 1], a2 = b[r + 2], a3 = b[r + 3];
      for (std::size_t k = 0; k < d; ++k) {
        const double xk = x[k];
        a0 += wx0[k] * xk;
        a1 += wx1[k] * xk;
        a2 += wx2[k] * xk;
        a3 += wx3[k] * xk;
      }
      for (std::size_t k = 0; k < hd; ++k) {
        const double hk = h_prev[k];
        a0 += wh0[k] * hk;
        a1 += wh1[k] * hk;
        a2 += wh2[k] * hk;
        a3 += wh3[k] * hk;
      }
      z[r] = a0;
      z[r + 1] = a1;
      z[r + 2] = a2;
      z[r + 3] = a3;
    }
    double* it = i_.data() + t * hd;
    double* ft = f_.data() + t * hd;
    double* gt = g_.data() + t * hd;
    double* ot = o_.data() + t * hd;
    double* tc = tanh_c_.data() + t * hd;
    double* h = h_.data() + (t + 1) * hd;
    double* c = c_.data() + (t + 1) * hd;
    for (std::size_t j = 0; j < hd; ++j) {
      it[j] = sigmoid(z[j]);
      ft[j] = sigmoid(z[hd + j]);
      gt[j] = std::tanh(z[2 * hd + j]);
      ot[j] = sigmoid(z[3 * hd + j]);
      c[j] = ft[j] * c_prev[j] + it[j] * gt[j];
      tc[j] = std::tanh(c[j]);
      h[j] = ot[j] * tc[j];
    }
  }
  return {h_.data() + steps_ * hd, hd};
}

void LstmLayer::backward(std::span<const double> d_h_final, LstmGrads& out) {
  SMILESS_CHECK_MSG(steps_ > 0, "backward() before forward()");
  check_shapes();
  const std::size_t d = input_dim_;
  const std::size_t hd = hidden_dim_;
  const std::size_t rows = 4 * hd;
  SMILESS_CHECK(d_h_final.size() == hd);

  zero(out.d_wx, rows, d);
  zero(out.d_wh, rows, hd);
  out.d_b.assign(rows, 0.0);
  dh_.assign(d_h_final.begin(), d_h_final.end());
  dc_.assign(hd, 0.0);
  dz_.resize(rows);
  dh_prev_.resize(hd);
  dc_prev_.resize(hd);

  const double* wh = wh_.data();
  double* d_wx = out.d_wx.data();
  double* d_wh = out.d_wh.data();
  double* d_b = out.d_b.data();
  double* dz = dz_.data();
  for (std::size_t t = steps_; t-- > 0;) {
    const double* x = x_.data() + t * d;
    const double* h_prev = h_.data() + t * hd;
    const double* c_prev = c_.data() + t * hd;
    const double* it = i_.data() + t * hd;
    const double* ft = f_.data() + t * hd;
    const double* gt = g_.data() + t * hd;
    const double* ot = o_.data() + t * hd;
    const double* tc = tanh_c_.data() + t * hd;
    const double* dh = dh_.data();
    const double* dc = dc_.data();
    double* dc_prev = dc_prev_.data();
    for (std::size_t j = 0; j < hd; ++j) {
      const double d_o = dh[j] * tc[j];
      const double dc_total = dc[j] + dh[j] * ot[j] * (1.0 - tc[j] * tc[j]);
      const double d_i = dc_total * gt[j];
      const double d_f = dc_total * c_prev[j];
      const double d_g = dc_total * it[j];
      dz[j] = d_i * it[j] * (1.0 - it[j]);
      dz[hd + j] = d_f * ft[j] * (1.0 - ft[j]);
      dz[2 * hd + j] = d_g * (1.0 - gt[j] * gt[j]);
      dz[3 * hd + j] = d_o * ot[j] * (1.0 - ot[j]);
      dc_prev[j] = dc_total * ft[j];
    }

    // Parameter gradients and dh_prev, row by row; every sum keeps its
    // order (dh_prev[k] still adds the rows ascending).
    double* dh_prev = dh_prev_.data();
    std::fill_n(dh_prev, hd, 0.0);
    for (std::size_t r = 0; r < rows; ++r) {
      const double dzr = dz[r];
      if (dzr == 0.0) continue;
      double* d_wx_r = d_wx + r * d;
      for (std::size_t k = 0; k < d; ++k) d_wx_r[k] += dzr * x[k];
      double* d_wh_r = d_wh + r * hd;
      for (std::size_t k = 0; k < hd; ++k) d_wh_r[k] += dzr * h_prev[k];
      d_b[r] += dzr;
      const double* wh_r = wh + r * hd;
      for (std::size_t k = 0; k < hd; ++k) dh_prev[k] += wh_r[k] * dzr;
    }
    std::swap(dh_, dh_prev_);
    std::swap(dc_, dc_prev_);
  }
}

std::vector<double*> LstmLayer::parameters() {
  std::vector<double*> out;
  out.reserve(parameter_count());
  for (std::size_t r = 0; r < 4 * hidden_dim_; ++r)
    for (std::size_t c = 0; c < input_dim_; ++c) out.push_back(&wx_(r, c));
  for (std::size_t r = 0; r < 4 * hidden_dim_; ++r)
    for (std::size_t c = 0; c < hidden_dim_; ++c) out.push_back(&wh_(r, c));
  for (auto& v : b_) out.push_back(&v);
  return out;
}

void LstmLayer::accumulate(std::vector<double>& flat, const LstmGrads& grads) {
  const double* d_wx = grads.d_wx.data();
  const double* d_wh = grads.d_wh.data();
  flat.insert(flat.end(), d_wx, d_wx + grads.d_wx.rows() * grads.d_wx.cols());
  flat.insert(flat.end(), d_wh, d_wh + grads.d_wh.rows() * grads.d_wh.cols());
  flat.insert(flat.end(), grads.d_b.begin(), grads.d_b.end());
}

std::size_t LstmLayer::parameter_count() const {
  return 4 * hidden_dim_ * (input_dim_ + hidden_dim_ + 1);
}

Adam::Adam(std::size_t n, double lr, double beta1, double beta2, double eps)
    : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps), m_(n, 0.0), v_(n, 0.0) {}

void Adam::step(std::vector<double*>& params, const std::vector<double>& grads) {
  SMILESS_CHECK(params.size() == grads.size() && params.size() == m_.size());
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  for (std::size_t i = 0; i < params.size(); ++i) {
    m_[i] = beta1_ * m_[i] + (1.0 - beta1_) * grads[i];
    v_[i] = beta2_ * v_[i] + (1.0 - beta2_) * grads[i] * grads[i];
    const double mhat = m_[i] / bc1;
    const double vhat = v_[i] / bc2;
    *params[i] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
  }
}

void copy_tail(std::span<const double> recent, std::span<double> tail) {
  SMILESS_CHECK(!recent.empty());
  const std::size_t len = tail.size();
  for (std::size_t i = 0; i < len; ++i) {
    const std::ptrdiff_t idx = static_cast<std::ptrdiff_t>(recent.size()) -
                               static_cast<std::ptrdiff_t>(len) + static_cast<std::ptrdiff_t>(i);
    tail[i] = idx >= 0 ? recent[static_cast<std::size_t>(idx)] : recent.front();
  }
}

}  // namespace smiless::predictor
