#include "exp/serve.hpp"

#include <optional>
#include <utility>

#include "obs/stream_sink.hpp"
#include "obs/telemetry.hpp"
#include "rt/wall_clock.hpp"

namespace smiless::exp {

ServeReport serve(const ExperimentConfig& config, const baselines::ProfileStore& store,
                  std::shared_ptr<ThreadPool> policy_pool, const ServeOptions& options) {
  // The live stream needs the event bus even when config.obs collects nothing.
  std::shared_ptr<obs::Telemetry> telemetry;
  if (config.obs.collect() || options.stream != nullptr)
    telemetry = std::make_shared<obs::Telemetry>();
  std::shared_ptr<prof::Profiler> profile;
  if (config.obs.profile()) profile = std::make_shared<prof::Profiler>();

  std::optional<obs::StreamSink> sink;
  if (options.stream != nullptr) sink.emplace(options.stream).attach(telemetry->bus());

  rt::WallClock clock(options.speedup);
  ServeReport report;
  report.cell = execute_cell(config, store, std::move(policy_pool), /*lane_threads=*/1,
                             std::move(telemetry), std::move(profile), &clock);
  report.speedup = options.speedup;
  report.wall_seconds = clock.wall_elapsed_seconds();
  report.cell.wall_seconds = report.wall_seconds;
  report.max_lag_seconds = clock.max_lag_seconds();
  report.batches = clock.waits();
  report.stream_lines = sink.has_value() ? sink->lines() : 0;
  report.interrupted = clock.stop_requested();
  return report;
}

}  // namespace smiless::exp
