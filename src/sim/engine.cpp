#include "sim/engine.hpp"

#include <limits>
#include <utility>

#include "prof/profiler.hpp"

namespace smiless::sim {

EventId Engine::schedule_at(SimTime t, Callback cb) {
  prof::ScopeTimer scope(prof_, prof::Site::EngineSchedule);
  SMILESS_CHECK_MSG(t >= now_, "cannot schedule in the past: " << t << " < " << now_);
  SMILESS_CHECK(cb != nullptr);
  const EventId id = next_id_++;
  ++stats_.scheduled;
  calendar_.schedule(t, id, std::move(cb));
  return id;
}

bool Engine::cancel(EventId id) {
  prof::ScopeTimer scope(prof_, prof::Site::EngineCancel);
  const bool cancelled = calendar_.cancel(id);
  if (cancelled) ++stats_.cancelled;
  return cancelled;
}

void Engine::sample_counters(SimTime t) {
  prof_->sample(t, prof::Counter::EngineLive, static_cast<double>(pending()));
  prof_->sample(t, prof::Counter::EngineScheduled, static_cast<double>(stats_.scheduled));
  prof_->sample(t, prof::Counter::EngineFired, static_cast<double>(stats_.fired));
  prof_->sample(t, prof::Counter::EngineCancelled, static_cast<double>(stats_.cancelled));
  const CalendarStats& cs = calendar_.stats();
  prof_->sample(t, prof::Counter::CalendarBuckets, static_cast<double>(cs.buckets));
  prof_->sample(t, prof::Counter::CalendarResizes, static_cast<double>(cs.resizes));
  prof_->sample(t, prof::Counter::CalendarDirectSearches,
                static_cast<double>(cs.direct_searches));
}

void Engine::run_until(SimTime end) {
  prof::ScopeTimer scope(prof_, prof::Site::EngineRun);
  SMILESS_CHECK(end >= now_);
  const std::uint64_t fired_at_entry = stats_.fired;
  SimTime t = 0.0;
  EventId id = 0;
  Callback cb;
  while (calendar_.pop_due(end, &t, &id, &cb)) {
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
