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
      ledger_(pricing),
      gateway_(engine_, options_, table_, ledger_),
      tracker_(engine_, options_, table_, ledger_),
      scheduler_(engine_, rng_, options_, table_, ledger_),
      pool_(engine_, cluster_, rng_, options_, table_, ledger_) {
  SMILESS_CHECK(options_.window_seconds > 0.0);
  SMILESS_CHECK(options_.retry_delay > 0.0);
  SMILESS_CHECK(options_.retry_backoff >= 1.0);
  SMILESS_CHECK(options_.retry_max_delay >= options_.retry_delay);
  SMILESS_CHECK(options_.request_timeout > 0.0);
  gateway_.wire(this, &tracker_, &pool_);
  tracker_.wire(&scheduler_);
  scheduler_.wire(&tracker_, &pool_);
  pool_.wire(this, &scheduler_, &tracker_);
  cluster_listener_ = cluster_.add_listener([this](int machine, bool up) {
    if (options_.bus != nullptr)
      options_.bus->publish({.type = up ? EventType::MachineUp : EventType::MachineDown,
                             .t = engine_.now(),
                             .machine = machine});
    if (!up) pool_.on_machine_down(machine);
  });
}

Platform::~Platform() { cluster_.remove_listener(cluster_listener_); }

AppId Platform::deploy(apps::App app, std::shared_ptr<Policy> policy) {
  SMILESS_CHECK(policy != nullptr);
  SMILESS_CHECK(app.dag.size() == app.truth.size());
  const AppId id = table_.add(std::move(app), std::move(policy));
  const std::size_t nodes = table_.nodes(id);
  ledger_.add_app(nodes);
  gateway_.add_app();
  tracker_.add_app();
  scheduler_.add_app(nodes);
  pool_.add_app(nodes);

  PlatformView view(*this);
  table_.policy(id).on_deploy(id, table_.spec(id), view);
  gateway_.start(id);  // after on_deploy: deploy-time plans precede any tick
  return id;
}

void Platform::submit_request(AppId app, SimTime arrival) { gateway_.submit(app, arrival); }

void Platform::finalize(SimTime end) {
  if (finalized_) return;
  finalized_ = true;
  gateway_.halt();
  scheduler_.halt();
  pool_.finalize(end);
  tracker_.finalize();
}

// --- control surface --------------------------------------------------------

void Platform::set_plan(AppId app, dag::NodeId node, FunctionPlan plan) {
  SMILESS_CHECK(plan.max_batch >= 1);
  SMILESS_CHECK(plan.min_instances >= 0);
  scheduler_.set_plan(app, node, plan);
  pool_.apply_plan(app, node, plan);
  scheduler_.dispatch(app, node);
}

const FunctionPlan& Platform::plan(AppId app, dag::NodeId node) const {
  return scheduler_.plan(app, node);
}

void Platform::prewarm_at(AppId app, dag::NodeId node, SimTime init_start) {
  pool_.prewarm_at(app, node, init_start);
}

bool Platform::spawn_instance(AppId app, dag::NodeId node) { return pool_.spawn(app, node); }

// --- introspection -----------------------------------------------------------

SimTime Platform::now() const { return engine_.now(); }

int Platform::instances_total(AppId app, dag::NodeId node) const {
  return pool_.count_total(app, node);
}

int Platform::instances_idle(AppId app, dag::NodeId node) const {
  return pool_.count_state(app, node, InstanceState::Idle);
}

int Platform::instances_initializing(AppId app, dag::NodeId node) const {
  return pool_.count_state(app, node, InstanceState::Init);
}

int Platform::instances_busy(AppId app, dag::NodeId node) const {
  return pool_.count_state(app, node, InstanceState::Busy);
}

std::size_t Platform::queue_length(AppId app, dag::NodeId node) const {
  return scheduler_.queue_length(app, node);
}

const AppMetrics& Platform::metrics(AppId app) const { return ledger_.metrics(app); }

long Platform::in_flight(AppId app) const { return ledger_.in_flight(app); }

}  // namespace smiless::serverless
