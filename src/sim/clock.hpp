#pragma once

#include "common/units.hpp"

namespace smiless::sim {

/// The one time seam of the simulator (DESIGN.md §16). A Clock decides when
/// a simulation instant `t` is allowed to happen; the lane loop of a paced
/// cell (serverless::ShardedPlatform::run) asks it before firing the events
/// of each instant. Two implementations exist:
///
///  - ImmediateClock (here) — simulated time is free, wait_until returns at
///    once: a paced run that behaves exactly like the unpaced
///    discrete-event one (a null clock), which is how tests hold pacing to
///    the contract below.
///  - rt::WallClock (src/rt/wall_clock.hpp) — maps sim seconds onto wall
///    seconds through a speedup factor and sleeps until each instant's wall
///    deadline. This is the live-serving mode.
///
/// Contract: a Clock only *delays*; it never reorders, drops or inserts
/// work. The simulated trajectory is therefore a pure function of the
/// schedule regardless of which clock paces it — only wall-clock pacing
/// (and any wall-derived diagnostics) differ between clocks.
class Clock {
 public:
  virtual ~Clock() = default;

  /// Called once when a paced run begins, with the sim time it starts
  /// from. Pacing clocks anchor their wall epoch here; the default is a
  /// no-op.
  virtual void start(SimTime sim_now) { (void)sim_now; }

  /// Block until sim time `t` may happen. Returns false when the run should
  /// stop early (e.g. an interrupt was requested) — the lane loop then
  /// stops without firing the events at `t`.
  virtual bool wait_until(SimTime t) = 0;
};

/// The DES clock: no pacing, never interrupts.
class ImmediateClock final : public Clock {
 public:
  bool wait_until(SimTime) override { return true; }
};

}  // namespace smiless::sim
