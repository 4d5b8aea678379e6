#pragma once

#include "common/check.hpp"

namespace smiless::math {

/// Largest integer b in [lo, hi] with pred(b) true, assuming pred is
/// monotone (true..true false..false). Returns lo-1 if pred(lo) is false.
/// This is the solver the Auto-scaler uses for the batch size in Eq. (7)/(8).
template <typename Pred>
int bisect_max_true(int lo, int hi, const Pred& pred) {
  SMILESS_CHECK(lo <= hi);
  if (!pred(lo)) return lo - 1;
  if (pred(hi)) return hi;
  // Invariant: pred(lo) true, pred(hi) false.
  while (hi - lo > 1) {
    const int mid = lo + (hi - lo) / 2;
    if (pred(mid))
      lo = mid;
    else
      hi = mid;
  }
  return lo;
}

/// Root of a continuous monotone function f on [lo, hi] (f(lo), f(hi) must
/// bracket zero) to within tol.
template <typename F>
double bisect_root(double lo, double hi, double tol, const F& f) {
  SMILESS_CHECK(lo < hi && tol > 0.0);
  double flo = f(lo);
  const double fhi = f(hi);
  SMILESS_CHECK_MSG(flo * fhi <= 0.0, "bisect_root: interval does not bracket a root");
  while (hi - lo > tol) {
    const double mid = 0.5 * (lo + hi);
    const double fm = f(mid);
    if (flo * fm <= 0.0) {
      hi = mid;
    } else {
      lo = mid;
      flo = fm;
    }
  }
  return 0.5 * (lo + hi);
}

}  // namespace smiless::math
