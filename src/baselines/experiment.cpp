#include "baselines/experiment.hpp"

#include <algorithm>
#include <cctype>

#include "apps/catalog.hpp"
#include "baselines/aquatope.hpp"
#include "baselines/grandslam.hpp"
#include "baselines/icebreaker.hpp"
#include "baselines/orion.hpp"
#include "core/smiless_policy.hpp"
#include "obs/telemetry.hpp"
#include "serverless/sharding.hpp"
#include "sim/engine.hpp"

namespace smiless::baselines {

ProfileStore::ProfileStore(const profiler::OfflineProfiler& profiler, Rng& rng) {
  results_ = profiler.profile_all(apps::model_catalog(), rng);
}

const perf::FunctionPerf& ProfileStore::fitted(const std::string& name) const {
  // Synthetic pipelines suffix node names with "#i"; resolve the prefix.
  const std::string base = name.substr(0, name.find('#'));
  for (const auto& r : results_)
    if (r.fitted.name == base) return r.fitted;
  SMILESS_CHECK_MSG(false, "no profile for function " << name);
  return results_.front().fitted;  // unreachable
}

std::vector<perf::FunctionPerf> ProfileStore::for_app(const apps::App& app) const {
  std::vector<perf::FunctionPerf> out;
  out.reserve(app.dag.size());
  for (std::size_t n = 0; n < app.dag.size(); ++n)
    out.push_back(fitted(app.dag.name(static_cast<dag::NodeId>(n))));
  return out;
}

namespace {

/// Copy one app's books into a RunResult and derive the violation ratio.
void fill_result(RunResult& r, const serverless::AppMetrics& m, double sla) {
  r.cost = m.total_cost();
  r.submitted = m.submitted;
  r.completed = static_cast<long>(m.completed.size());
  r.failed = m.failed;
  r.invocations = m.total_invocations();
  r.initializations = m.total_initializations();
  r.init_failures = m.total_init_failures();
  r.evictions = m.total_evictions();
  r.retries = m.total_retries();
  r.timeouts = m.total_timeouts();
  r.cpu_core_seconds = m.total_cpu_seconds();
  r.gpu_pct_seconds = m.total_gpu_seconds();
  r.windows = m.windows;
  r.traces = m.traces;
  r.e2e.reserve(m.completed.size());
  for (const auto& rec : m.completed) r.e2e.push_back(rec.e2e());
  long violations = 0;
  for (const auto& rec : m.completed)
    if (rec.e2e() > sla) ++violations;
  violations += std::max<long>(0, r.submitted - r.completed);  // undelivered or failed
  r.violation_ratio = r.submitted == 0 ? 0.0
                                       : static_cast<double>(violations) /
                                             static_cast<double>(r.submitted);
}

/// Mirror the run's global books into the telemetry registry — the same
/// keys at any lane count, so artifacts don't reveal how the cell was
/// split.
void mirror_registry(obs::Telemetry& tel, const sim::EngineStats& es,
                     const faults::FaultStats& fs, const std::vector<RunResult>& results) {
  auto& reg = tel.registry();
  reg.count("engine/events_scheduled", es.scheduled);
  reg.count("engine/events_fired", es.fired);
  reg.count("engine/events_cancelled", es.cancelled);
  reg.count("faults/init_failures", static_cast<std::uint64_t>(fs.init_failures));
  reg.count("faults/stragglers", static_cast<std::uint64_t>(fs.stragglers));
  reg.count("faults/crashes", static_cast<std::uint64_t>(fs.crashes));
  reg.count("faults/recoveries", static_cast<std::uint64_t>(fs.recoveries));
  for (const RunResult& r : results) {
    const std::string p = "app/" + r.app + "/";
    reg.count(p + "submitted", static_cast<std::uint64_t>(r.submitted));
    reg.count(p + "completed", static_cast<std::uint64_t>(r.completed));
    reg.count(p + "failed", static_cast<std::uint64_t>(r.failed));
    reg.count(p + "invocations", static_cast<std::uint64_t>(r.invocations));
    reg.count(p + "initializations", static_cast<std::uint64_t>(r.initializations));
    reg.count(p + "evictions", static_cast<std::uint64_t>(r.evictions));
    reg.count(p + "retries", static_cast<std::uint64_t>(r.retries));
    reg.count(p + "timeouts", static_cast<std::uint64_t>(r.timeouts));
    reg.gauge(p + "cost", r.cost);
    reg.gauge(p + "cpu_core_seconds", r.cpu_core_seconds);
    reg.gauge(p + "gpu_pct_seconds", r.gpu_pct_seconds);
  }
}

}  // namespace

RunResult run_experiment(const apps::App& app, const workload::Trace& trace,
                         std::shared_ptr<serverless::Policy> policy,
                         const ExperimentOptions& options) {
  std::vector<ColocatedApp> deployment;
  deployment.push_back({app, &trace, std::move(policy)});
  return run_colocated(std::move(deployment), options).front();
}

std::vector<RunResult> run_colocated(std::vector<ColocatedApp> apps,
                                     const ExperimentOptions& options) {
  SMILESS_CHECK(!apps.empty());
  serverless::ShardOptions sopt;
  sopt.lanes = options.lanes;
  sopt.lane_threads = options.lane_threads;
  sopt.seed = options.seed;
  sopt.machines = 8;  // the paper's testbed
  sopt.platform = options.platform;
  sopt.faults = options.faults;
  sopt.telemetry = options.telemetry;
  sopt.prof = options.profiler;
  if (options.telemetry != nullptr && options.series_cadence > 0.0)
    options.telemetry->enable_series(options.series_cadence);
  serverless::ShardedPlatform sharded(sopt);

  std::vector<RunResult> out(apps.size());
  std::vector<double> slas(apps.size());
  double horizon = 0.0;
  for (std::size_t i = 0; i < apps.size(); ++i) {
    auto& ca = apps[i];
    SMILESS_CHECK(ca.trace != nullptr && ca.policy != nullptr);
    out[i].policy = ca.policy->name();
    out[i].app = ca.app.name;
    slas[i] = ca.app.sla;
    horizon = std::max(horizon,
                       static_cast<double>(ca.trace->counts.size()) * ca.trace->window);
    sharded.add_app(std::move(ca.app), std::move(ca.policy), ca.trace->arrivals);
  }
  const double end = horizon + options.drain_slack;
  sharded.run(end, options.clock);
  if (options.telemetry != nullptr) options.telemetry->finalize_series(end);

  for (std::size_t i = 0; i < apps.size(); ++i)
    fill_result(out[i], sharded.metrics(static_cast<int>(i)), slas[i]);

  if (options.telemetry != nullptr)
    mirror_registry(*options.telemetry, sharded.engine_stats(), sharded.fault_stats(), out);
  return out;
}

std::string policy_kind_name(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::Smiless: return "SMIless";
    case PolicyKind::SmilessHomo: return "SMIless-Homo";
    case PolicyKind::SmilessNoDag: return "SMIless-No-DAG";
    case PolicyKind::Opt: return "OPT";
    case PolicyKind::Orion: return "Orion";
    case PolicyKind::IceBreaker: return "IceBreaker";
    case PolicyKind::GrandSlam: return "GrandSLAm";
    case PolicyKind::Aquatope: return "Aquatope";
  }
  return "?";
}

std::optional<PolicyKind> parse_policy_kind(const std::string& name) {
  std::string lower;
  for (const char c : name)
    if (c != '-' && c != '_') lower += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  if (lower == "smiless") return PolicyKind::Smiless;
  if (lower == "smilesshomo") return PolicyKind::SmilessHomo;
  if (lower == "smilessnodag") return PolicyKind::SmilessNoDag;
  if (lower == "opt") return PolicyKind::Opt;
  if (lower == "orion") return PolicyKind::Orion;
  if (lower == "icebreaker") return PolicyKind::IceBreaker;
  if (lower == "grandslam") return PolicyKind::GrandSlam;
  if (lower == "aquatope") return PolicyKind::Aquatope;
  return std::nullopt;
}

const std::vector<PolicyKind>& all_policy_kinds() {
  static const std::vector<PolicyKind> kinds = {
      PolicyKind::Smiless, PolicyKind::SmilessHomo, PolicyKind::SmilessNoDag,
      PolicyKind::GrandSlam, PolicyKind::IceBreaker, PolicyKind::Orion,
      PolicyKind::Aquatope, PolicyKind::Opt,
  };
  return kinds;
}

std::shared_ptr<serverless::Policy> make_policy(PolicyKind kind, const apps::App& app,
                                                const ProfileStore& store,
                                                const PolicySettings& settings) {
  auto fitted = store.for_app(app);
  switch (kind) {
    case PolicyKind::Smiless: {
      core::SmilessOptions o;
      o.use_lstm = settings.use_lstm;
      auto policy = std::make_shared<core::SmilessPolicy>("SMIless", std::move(fitted), o,
                                                          settings.pool);
      policy->set_audit_log(settings.audit);
      return policy;
    }
    case PolicyKind::SmilessHomo: {
      core::SmilessOptions o;
      o.use_lstm = settings.use_lstm;
      o.optimizer.config_space = perf::cpu_only_config_space();
      auto policy = std::make_shared<core::SmilessPolicy>("SMIless-Homo", std::move(fitted), o,
                                                          settings.pool);
      policy->set_audit_log(settings.audit);
      return policy;
    }
    case PolicyKind::SmilessNoDag: {
      core::SmilessOptions o;
      o.use_lstm = settings.use_lstm;
      o.use_dag_offsets = false;
      auto policy = std::make_shared<core::SmilessPolicy>("SMIless-No-DAG", std::move(fitted),
                                                          o, settings.pool);
      policy->set_audit_log(settings.audit);
      return policy;
    }
    case PolicyKind::Opt: {
      SMILESS_CHECK_MSG(settings.oracle_trace != nullptr, "OPT needs an oracle trace");
      core::SmilessOptions o;
      o.use_lstm = false;  // oracle replaces prediction
      o.exhaustive = true;
      auto policy = std::make_shared<core::SmilessPolicy>("OPT", app.truth, o, settings.pool);
      policy->set_oracle_arrivals(settings.oracle_trace->arrivals);
      policy->set_audit_log(settings.audit);
      return policy;
    }
    case PolicyKind::Orion:
      return std::make_shared<OrionPolicy>(std::move(fitted));
    case PolicyKind::IceBreaker:
      return std::make_shared<IceBreakerPolicy>(std::move(fitted));
    case PolicyKind::GrandSlam:
      return std::make_shared<GrandSlamPolicy>(std::move(fitted));
    case PolicyKind::Aquatope:
      return std::make_shared<AquatopePolicy>(std::move(fitted));
  }
  SMILESS_CHECK_MSG(false, "unknown policy kind");
  return nullptr;
}

}  // namespace smiless::baselines
