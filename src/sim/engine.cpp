#include "sim/engine.hpp"

#include <limits>
#include <utility>

#include "prof/profiler.hpp"

namespace smiless::sim {

EventId Engine::schedule_at(SimTime t, Callback cb) {
  prof::ScopeTimer scope(prof_, prof::Site::EngineSchedule);
  SMILESS_CHECK_MSG(t >= now_, "cannot schedule in the past: " << t << " < " << now_);
  SMILESS_CHECK(cb != nullptr);
  ++stats_.scheduled;
  return queue_.schedule(t, std::move(cb));
}

bool Engine::cancel(EventId id) {
  prof::ScopeTimer scope(prof_, prof::Site::EngineCancel);
  const bool cancelled = queue_.cancel(id);
  if (cancelled) ++stats_.cancelled;
  return cancelled;
}

void Engine::sample_counters(SimTime t) {
  prof_->sample(t, prof::Counter::EngineLive, static_cast<double>(pending()));
  prof_->sample(t, prof::Counter::EngineScheduled, static_cast<double>(stats_.scheduled));
  prof_->sample(t, prof::Counter::EngineFired, static_cast<double>(stats_.fired));
  prof_->sample(t, prof::Counter::EngineCancelled, static_cast<double>(stats_.cancelled));
}

void Engine::run_until(SimTime end) {
  prof::ScopeTimer scope(prof_, prof::Site::EngineRun);
  SMILESS_CHECK(end >= now_);
  const std::uint64_t fired_at_entry = stats_.fired;
  SimTime t = 0.0;
  EventId id = 0;
  Callback cb;
  while (queue_.pop_due(end, &t, &id, &cb)) {
    now_ = t;
    ++stats_.fired;
    cb();
    cb = nullptr;
    if (prof_ != nullptr && (stats_.fired & (kSampleInterval - 1)) == 0)
      sample_counters(now_);
  }
  // One closing sample per run_until that fired anything: short runs (and
  // each sharded window step) get at least one point per counter track.
  if (prof_ != nullptr && stats_.fired != fired_at_entry) sample_counters(t);
  now_ = end;
}

void Engine::run() { run_until(std::numeric_limits<SimTime>::max()); }

}  // namespace smiless::sim
