#include "serverless/platform.hpp"

#include <utility>

#include "common/check.hpp"
#include "obs/event_bus.hpp"
#include "serverless/platform_view.hpp"

namespace smiless::serverless {

using obs::EventType;

Platform::Platform(sim::Engine& engine, cluster::Cluster& cluster, perf::Pricing pricing,
                   Rng& rng, PlatformOptions options)
    : engine_(engine),
      cluster_(cluster),
      rng_(rng),
      options_(options),
      ledger_(pricing) {
  SMILESS_CHECK(options_.window_seconds > 0.0);
  SMILESS_CHECK(options_.retry_delay > 0.0);
  SMILESS_CHECK(options_.retry_backoff >= 1.0);
  SMILESS_CHECK(options_.retry_max_delay >= options_.retry_delay);
  SMILESS_CHECK(options_.request_timeout > 0.0);
  cluster_listener_ = cluster_.add_listener([this](int machine, bool up) {
    if (options_.bus != nullptr)
      options_.bus->publish({.type = up ? EventType::MachineUp : EventType::MachineDown,
                             .t = engine_.now(),
                             .machine = machine});
    if (!up) on_machine_down(machine);
  });
}

Platform::~Platform() { cluster_.remove_listener(cluster_listener_); }

AppId Platform::deploy(apps::App app, std::shared_ptr<Policy> policy) {
  SMILESS_CHECK(policy != nullptr);
  SMILESS_CHECK(app.dag.size() == app.truth.size());
  const AppId id = table_.add(std::move(app), std::move(policy));
  ledger_.add_app(table_.spec(id).dag.size());

  PlatformView view(*this);
  table_.policy(id).on_deploy(id, table_.spec(id), view);
  start_windows(id);  // after on_deploy: deploy-time plans precede any tick
  return id;
}

void Platform::finalize(SimTime end) {
  if (table_.finalized()) return;
  table_.finalize();
  finalize_instances(end);
  cancel_timeouts();
}

}  // namespace smiless::serverless
