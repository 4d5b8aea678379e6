#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "common/check.hpp"
#include "common/units.hpp"

namespace smiless::workload {

/// Cursor over one app's sorted arrival timestamps — the single arrival-
/// iteration helper shared by every injection path (DESIGN.md §16):
///
///  - the classic monolithic run drains the whole trace upfront
///    (`drain_all`) before the DES pump starts;
///  - each sharded lane streams one window at a time (`drain_before` the
///    window's end, `drain_all` at the final flush);
///  - the real-time replayer feeds arrivals in as the wall clock reaches
///    them (`next_time` to learn the next due instant, `drain_through` to
///    inject it).
///
/// The cursor never owns the arrival vector (traces are shared, immutable
/// run inputs) and only ever moves forward, so however a driver slices the
/// timeline the injected sequence is the same.
class ArrivalCursor {
 public:
  ArrivalCursor() = default;

  /// `arrivals` must be sorted ascending and outlive the cursor.
  explicit ArrivalCursor(const std::vector<SimTime>* arrivals) : arrivals_(arrivals) {
    SMILESS_CHECK(arrivals_ != nullptr);
  }

  bool exhausted() const { return arrivals_ == nullptr || cur_ >= arrivals_->size(); }
  std::size_t position() const { return cur_; }
  std::size_t remaining() const {
    return arrivals_ == nullptr ? 0 : arrivals_->size() - cur_;
  }

  /// Next un-injected arrival time; +infinity when exhausted.
  SimTime next_time() const {
    return exhausted() ? std::numeric_limits<double>::infinity() : (*arrivals_)[cur_];
  }

  /// Feed every arrival strictly before `limit` to `fn`, in order. Returns
  /// the number fed. (The per-window streaming bound: an arrival at
  /// exactly a window's end belongs to the next window.)
  template <typename Fn>
  std::size_t drain_before(SimTime limit, Fn&& fn) {
    std::size_t n = 0;
    while (!exhausted() && (*arrivals_)[cur_] < limit) {
      fn((*arrivals_)[cur_]);
      ++cur_;
      ++n;
    }
    return n;
  }

  /// Feed every arrival at or before `t` to `fn`, in order. Returns the
  /// number fed. (The pacing-driver bound: when the clock has reached `t`,
  /// an arrival due exactly then is due now.)
  template <typename Fn>
  std::size_t drain_through(SimTime t, Fn&& fn) {
    std::size_t n = 0;
    while (!exhausted() && (*arrivals_)[cur_] <= t) {
      fn((*arrivals_)[cur_]);
      ++cur_;
      ++n;
    }
    return n;
  }

  /// Feed everything left to `fn`, regardless of time. Returns the number
  /// fed. (Upfront scheduling, and the end-of-run tail flush that keeps
  /// scheduled-event tallies identical between injection modes.)
  template <typename Fn>
  std::size_t drain_all(Fn&& fn) {
    std::size_t n = 0;
    while (!exhausted()) {
      fn((*arrivals_)[cur_]);
      ++cur_;
      ++n;
    }
    return n;
  }

 private:
  const std::vector<SimTime>* arrivals_ = nullptr;  ///< not owned, sorted
  std::size_t cur_ = 0;                             ///< next un-injected index
};

}  // namespace smiless::workload
