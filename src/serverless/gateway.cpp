#include "serverless/gateway.hpp"

#include "common/check.hpp"
#include "prof/profiler.hpp"
#include "serverless/app_table.hpp"
#include "serverless/instance_pool.hpp"
#include "serverless/ledger.hpp"
#include "serverless/platform_view.hpp"
#include "serverless/request_tracker.hpp"
#include "sim/engine.hpp"

namespace smiless::serverless {

Gateway::Gateway(sim::Engine& engine, const PlatformOptions& options, const AppTable& table,
                 Ledger& ledger)
    : engine_(engine), options_(options), table_(table), ledger_(ledger) {}

void Gateway::wire(Platform* platform, RequestTracker* tracker, InstancePool* pool) {
  platform_ = platform;
  tracker_ = tracker;
  pool_ = pool;
}

void Gateway::add_app() { open_arrivals_.push_back(0); }

void Gateway::start(AppId app) {
  if (grids_.empty() || grids_.back().opened != engine_.now()) {
    WindowGrid& grid = grids_.emplace_back();
    grid.opened = engine_.now();
    grid.next_end = engine_.now() + options_.window_seconds;
    engine_.schedule_at(grid.next_end, [this, &grid] { window_tick(grid); });
  }
  grids_.back().apps.push_back(app);
}

void Gateway::window_tick(WindowGrid& grid) {
  if (halted_) return;  // engine may still drain ticks after finalize()
  // A deploy from on_window opens a new grid (its instant is not this
  // grid's), so this app list cannot grow while it ticks.
  for (const AppId app : grid.apps) close_window(app, grid.next_end);
  grid.next_end += options_.window_seconds;
  engine_.schedule_at(grid.next_end, [this, &grid] { window_tick(grid); });
}

void Gateway::close_window(AppId app, SimTime end) {
  prof::ScopeTimer scope(options_.prof, prof::Site::GatewayWindow);
  WindowStats stats;
  stats.window_end = end;
  stats.window_start = end - options_.window_seconds;
  stats.arrivals = open_arrivals_[app];

  WindowSample sample;
  sample.window_start = stats.window_start;
  sample.arrivals = stats.arrivals;
  const auto census = pool_->census(app);
  sample.instances_total = census.total;
  sample.instances_cpu = census.cpu;
  sample.instances_gpu = census.gpu;
  ledger_.books(app).windows.push_back(sample);

  open_arrivals_[app] = 0;
  PlatformView view(*platform_);
  {
    prof::ScopeTimer solver(options_.prof, prof::Site::PolicyWindow);
    table_.policy(app).on_window(app, table_.spec(app), view, stats);
  }
}

void Gateway::submit(AppId app, SimTime arrival) {
  SMILESS_CHECK(arrival >= engine_.now());
  engine_.schedule_at(arrival, [this, app] {
    ++ledger_.books(app).submitted;
    ++open_arrivals_[app];
    PlatformView view(*platform_);
    table_.policy(app).on_arrival(app, table_.spec(app), view, engine_.now());
    tracker_->admit(app);
  });
}

}  // namespace smiless::serverless
