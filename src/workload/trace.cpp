#include "workload/trace.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/check.hpp"

namespace smiless::workload {

std::vector<double> Trace::interarrivals() const {
  std::vector<double> out;
  if (arrivals.size() < 2) return out;
  out.reserve(arrivals.size() - 1);
  for (std::size_t i = 1; i < arrivals.size(); ++i)
    out.push_back(arrivals[i] - arrivals[i - 1]);
  return out;
}

std::vector<double> Trace::counts_as_double() const {
  return {counts.begin(), counts.end()};
}

Trace generate_trace(const TraceOptions& o, Rng& rng) {
  SMILESS_CHECK(o.duration > 0.0 && o.duration <= kMaxTraceDuration && o.window > 0.0 &&
                o.mean_rate >= 0.0);
  Trace trace;
  trace.window = o.window;
  const auto n_windows = static_cast<std::size_t>(o.duration / o.window);
  trace.counts.reserve(n_windows);

  double burst_until = -1.0;
  double idle_until = -1.0;
  for (std::size_t w = 0; w < n_windows; ++w) {
    const double t = static_cast<double>(w) * o.window;

    if (t > burst_until && rng.uniform(0.0, 1.0) < o.burst_start_prob)
      burst_until = t + o.burst_duration;
    if (t > idle_until && t > burst_until && rng.uniform(0.0, 1.0) < o.idle_start_prob)
      idle_until = t + o.idle_duration;

    double rate = o.mean_rate *
                  (1.0 + o.diurnal_amplitude *
                             std::sin(2.0 * std::numbers::pi * t / o.diurnal_period));
    if (t <= burst_until) rate *= o.burst_magnitude;
    if (t <= idle_until) rate = 0.0;
    if (rate < 0.0) rate = 0.0;

    const int count = rng.poisson(rate * o.window);
    trace.counts.push_back(count);
    for (int i = 0; i < count; ++i)
      trace.arrivals.push_back(t + rng.uniform(0.0, o.window));
  }
  std::sort(trace.arrivals.begin(), trace.arrivals.end());
  return trace;
}

TraceOptions preset_for_workload(const std::string& workload_name, double duration) {
  TraceOptions o;
  o.duration = duration;
  // All three applications see Azure-like load: active phases around a 2 s
  // mean inter-arrival separated by pronounced quiet periods (the quiet
  // fraction is what separates cold-start-aware policies from keep-forever
  // ones).
  if (workload_name.find("WL1") != std::string::npos) {
    // AMBER alerts: rare baseline with sharp event-driven bursts and long
    // quiet stretches.
    o.mean_rate = 0.4;
    o.burst_start_prob = 0.006;
    o.burst_magnitude = 10.0;
    o.idle_start_prob = 0.010;
    o.idle_duration = 60.0;
  } else if (workload_name.find("WL2") != std::string::npos) {
    // Image query: moderate diurnal traffic with occasional bursts.
    o.mean_rate = 0.5;
    o.burst_start_prob = 0.004;
    o.burst_magnitude = 6.0;
    o.idle_start_prob = 0.008;
    o.idle_duration = 45.0;
  } else {
    // Voice assistant: steadier interactive traffic, deeper diurnal lows.
    o.mean_rate = 0.6;
    o.diurnal_amplitude = 0.6;
    o.burst_start_prob = 0.003;
    o.burst_magnitude = 4.0;
    o.idle_start_prob = 0.006;
    o.idle_duration = 40.0;
  }
  return o;
}

Trace generate_burst_window(double quiet_rate, double peak_rate, Rng& rng, double duration) {
  SMILESS_CHECK(duration > 0.0 && duration <= kMaxTraceDuration && quiet_rate >= 0.0 &&
                peak_rate >= quiet_rate && peak_rate * duration <= kMaxTraceArrivals);
  Trace trace;
  trace.window = 1.0;
  const auto n = static_cast<std::size_t>(duration);
  for (std::size_t w = 0; w < n; ++w) {
    const double t = static_cast<double>(w);
    double rate = quiet_rate;
    // Ramp 1/3 in, peak for a third, decay.
    const double burst_start = duration / 3.0;
    const double burst_end = 2.0 * duration / 3.0;
    if (t >= burst_start && t < burst_end) {
      rate = peak_rate;
    } else if (t >= burst_end) {
      const double frac = (t - burst_end) / (duration - burst_end);
      rate = peak_rate + (quiet_rate - peak_rate) * frac;
    }
    const int count = rng.poisson(rate);
    trace.counts.push_back(count);
    for (int i = 0; i < count; ++i) trace.arrivals.push_back(t + rng.uniform(0.0, 1.0));
  }
  std::sort(trace.arrivals.begin(), trace.arrivals.end());
  return trace;
}

Trace generate_regular_trace(double interval, double jitter_frac, double duration, Rng& rng) {
  SMILESS_CHECK(interval > 0.0 && jitter_frac >= 0.0 && std::isfinite(jitter_frac) &&
                std::isfinite(jitter_frac * interval) && duration > interval &&
                duration <= kMaxTraceDuration && duration / interval <= kMaxTraceArrivals);
  Trace trace;
  trace.window = 1.0;
  double t = interval * rng.uniform(0.5, 1.0);
  while (t < duration) {
    trace.arrivals.push_back(t);
    t += rng.truncated_normal(interval, jitter_frac * interval, 0.2 * interval);
  }
  const auto n = static_cast<std::size_t>(duration);
  trace.counts.assign(n, 0);
  for (double a : trace.arrivals) {
    const auto w = static_cast<std::size_t>(a);
    if (w < n) ++trace.counts[w];
  }
  return trace;
}

}  // namespace smiless::workload
