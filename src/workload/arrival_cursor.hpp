#pragma once

#include <cstddef>
#include <vector>

#include "common/check.hpp"
#include "common/units.hpp"

namespace smiless::workload {

/// Cursor over one app's sorted arrival timestamps, as the lane loop
/// (DESIGN.md §14) streams them in: one window at a time (`drain_before`
/// the window's end), then everything left at the final window's tail
/// flush (`drain_all`).
///
/// The cursor never owns the arrival vector (traces are shared, immutable
/// run inputs) and only ever moves forward, so however the timeline is
/// sliced the injected sequence is the same.
class ArrivalCursor {
 public:
  ArrivalCursor() = default;

  /// `arrivals` must be sorted ascending and outlive the cursor.
  explicit ArrivalCursor(const std::vector<SimTime>* arrivals) : arrivals_(arrivals) {
    SMILESS_CHECK(arrivals_ != nullptr);
  }

  bool exhausted() const { return arrivals_ == nullptr || cur_ >= arrivals_->size(); }

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

  /// Feed everything left to `fn`, regardless of time. Returns the number
  /// fed. (The final window's tail flush, which keeps the scheduled-event
  /// tally counting the whole trace.)
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
