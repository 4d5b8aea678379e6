#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"

namespace smiless::workload {

/// Longest trace a generator builds, in seconds: 10^6 s, 139x the paper's
/// 2 h runs. Every generator sizes its per-window counts, and the regular
/// one its arrival loop, from the duration, so each checks this ceiling
/// before sizing anything; exp::build_trace reports it naming `duration`.
inline constexpr double kMaxTraceDuration = 1e6;

/// Knobs of the Azure-Functions-like synthetic trace generator. The paper
/// drives each application with invocation traces from the Azure Function
/// Dataset, scaled from 1-minute to 2-second mean intervals; this generator
/// reproduces the statistical properties that matter to the predictors and
/// the cold-start logic: a diurnal baseline, Poisson jitter, occasional
/// bursts (variance-to-mean ratio > 2) and idle stretches.
struct TraceOptions {
  double duration = 1200.0;       ///< trace length in seconds
  double window = 1.0;            ///< counting window (s)
  double mean_rate = 0.5;         ///< mean invocations per window (0.5 == 2 s IT)
  double diurnal_amplitude = 0.5; ///< relative amplitude of the slow sinusoid
  double diurnal_period = 600.0;  ///< seconds per "day" after scale-down
  double burst_start_prob = 0.004; ///< per-window probability a burst begins
  double burst_magnitude = 8.0;   ///< rate multiplier inside a burst
  double burst_duration = 12.0;   ///< seconds
  double idle_start_prob = 0.003; ///< per-window probability an idle gap begins
  double idle_duration = 30.0;    ///< seconds
};

/// A generated trace: per-window invocation counts plus the exact arrival
/// timestamps (counts spread uniformly inside each window).
struct Trace {
  double window = 1.0;
  std::vector<int> counts;
  std::vector<SimTime> arrivals;

  std::size_t total_invocations() const { return arrivals.size(); }
  /// Inter-arrival gaps between consecutive arrivals.
  std::vector<double> interarrivals() const;
  /// Per-window counts as doubles (predictor input).
  std::vector<double> counts_as_double() const;
};

/// Generate a trace; deterministic for a given rng state.
Trace generate_trace(const TraceOptions& options, Rng& rng);

/// Per-workload presets used by the evaluation: the three applications see
/// differently-shaped load (WL1 burstier, WL2 moderate, WL3 steady-ish),
/// all with ~2 s mean inter-arrival per §VII-A.
TraceOptions preset_for_workload(const std::string& workload_name, double duration);

/// A deliberately violent 60-second burst window (Fig. 14/15): quiet, then a
/// sharp multi-x spike, then decay.
Trace generate_burst_window(double quiet_rate, double peak_rate, Rng& rng,
                            double duration = 60.0);

/// A near-periodic trace: one arrival every `interval` seconds with small
/// relative jitter. This is the regime where just-in-time pre-warming pays
/// off — the paper's inter-arrival predictor reports 2.45% MAPE, i.e. its
/// production gaps are this regular.
Trace generate_regular_trace(double interval, double jitter_frac, double duration, Rng& rng);

}  // namespace smiless::workload
