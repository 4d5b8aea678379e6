#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

#include "common/units.hpp"
#include "sim/clock.hpp"

namespace smiless::rt {

/// The live-serving clock (DESIGN.md §16): maps simulated seconds onto wall
/// seconds through a speedup factor and sleeps until each instant's wall
/// deadline. `speedup == 1` replays a trace at its natural rate; large
/// speedups (the CI smoke uses 1e5) compress an hour-long trace into
/// fractions of a second while exercising exactly the live code path.
///
/// Determinism boundary: everything this class reads from the wall clock
/// stays on this side of the seam. wait_until() only *delays* — the sim
/// trajectory it paces is identical to the DES one by the Clock contract —
/// and the wall-derived diagnostics (max_lag_seconds, wall_elapsed_seconds)
/// flow to stderr/serve reports only, never into golden-compared artifacts.
/// Every steady-clock read sits behind a reasoned per-line lint allowance.
class WallClock final : public sim::Clock {
 public:
  explicit WallClock(double speedup);

  /// Anchors the wall epoch: sim time `sim_now` corresponds to "now" on the
  /// wall, and every later instant t maps to epoch + (t - sim_now)/speedup.
  void start(SimTime sim_now) override;

  /// Sleeps until `t`'s wall deadline (in short slices so stop requests are
  /// honored promptly). Returns false iff request_stop() was called; late
  /// wake-ups (deadline already passed) return true immediately and are
  /// tallied as lag.
  bool wait_until(SimTime t) override;

  /// Ask the clock to abandon pacing; the current/next wait_until returns
  /// false and the paced run stops. Safe to call from another thread or a
  /// signal-adjacent context.
  void request_stop() { stop_.store(true, std::memory_order_relaxed); }
  bool stop_requested() const { return stop_.load(std::memory_order_relaxed); }

  double speedup() const { return speedup_; }

  /// Largest observed lateness (wall seconds past a deadline when its
  /// wait_until ran), and wall seconds since start(). Diagnostics only.
  double max_lag_seconds() const { return max_lag_seconds_; }
  double wall_elapsed_seconds() const;
  std::uint64_t waits() const { return waits_; }

 private:
  using WallDuration = std::chrono::duration<double>;  ///< wall seconds

  const double speedup_;
  SimTime sim_epoch_ = 0.0;
  std::chrono::steady_clock::time_point wall_epoch_;  // detlint:allow(wall-clock) pacing anchor; quarantined per class doc
  bool started_ = false;
  std::atomic<bool> stop_{false};
  double max_lag_seconds_ = 0.0;
  std::uint64_t waits_ = 0;
};

}  // namespace smiless::rt
