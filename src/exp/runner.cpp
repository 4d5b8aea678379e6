#include "exp/runner.hpp"

#include <chrono>
#include <iostream>
#include <mutex>
#include <set>

#include "common/json.hpp"
#include "common/table.hpp"
#include "faults/fault_io.hpp"
#include "profiler/offline_profiler.hpp"
#include "serverless/options_io.hpp"

namespace smiless::exp {

Runner::Runner(RunnerOptions options) : options_(options) {
  policy_pool_ = std::make_shared<ThreadPool>(options_.policy_threads);
}

const baselines::ProfileStore& Runner::profiles(std::uint64_t profile_seed) {
  auto it = stores_.find(profile_seed);
  if (it == stores_.end()) {
    Rng rng(profile_seed);
    it = stores_
             .emplace(profile_seed, std::make_unique<baselines::ProfileStore>(
                                        profiler::OfflineProfiler{}, rng))
             .first;
  }
  return *it->second;
}

CellResult execute_cell(const ExperimentConfig& config, const baselines::ProfileStore& store,
                        std::shared_ptr<ThreadPool> policy_pool, int lane_threads,
                        std::shared_ptr<obs::Telemetry> telemetry,
                        std::shared_ptr<prof::Profiler> profile, sim::Clock* clock) {
  // detlint:allow(wall-clock) cell wall-time goes to progress stderr only, never into artifacts
  const auto t0 = std::chrono::steady_clock::now();

  // The knobs as the CLI flags and the grid's axes left them.
  faults::validate(config.faults);
  serverless::validate(config.platform);
  if (!(config.sla > 0.0)) json::reject("sla", "> 0", config.sla);
  const apps::App app = resolve_app(config);
  const workload::Trace trace = build_trace(config, app);
  const double horizon = static_cast<double>(trace.counts.size()) * trace.window;
  if (!(horizon + config.drain_slack > 0.0))
    json::reject("drain_slack",
                 "> -" + json::Value::format_double(horizon) + " (minus the trace's horizon)",
                 config.drain_slack);

  std::shared_ptr<serverless::Policy> policy;
  if (config.policy_override) {
    const CellContext ctx{config, app, trace, store, policy_pool, telemetry.get()};
    policy = config.policy_override(ctx);
  } else {
    const auto kind = baselines::parse_policy_kind(config.policy);
    if (!kind) throw std::runtime_error("unknown policy '" + config.policy + "'");
    baselines::PolicySettings settings;
    settings.use_lstm = config.use_lstm;
    settings.pool = std::move(policy_pool);
    settings.oracle_trace = &trace;  // only OPT reads it
    settings.audit = telemetry != nullptr ? &telemetry->audit() : nullptr;
    policy = baselines::make_policy(*kind, app, store, settings);
  }

  baselines::ExperimentOptions options;
  options.seed = config.seed;
  options.drain_slack = config.drain_slack;
  options.lanes = config.lanes;
  options.lane_threads = lane_threads;
  options.platform = config.platform;
  options.faults = config.faults;
  options.telemetry = telemetry.get();
  options.profiler = profile.get();
  if (!config.obs.series_out.empty() || !config.obs.report_out.empty())
    options.series_cadence = config.obs.series_cadence;
  options.clock = clock;

  CellResult out;
  out.config = config;
  out.telemetry = std::move(telemetry);
  out.profile = std::move(profile);
  {
    // Root scope: brackets the whole cell so site exclusive times sum to it.
    prof::ScopeTimer cell_scope(out.profile.get(), prof::Site::CellRun);
    out.result = baselines::run_experiment(app, trace, std::move(policy), options);
  }
  out.wall_seconds =  // detlint:allow(wall-clock) same quarantine: progress display only
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return out;
}

CellResult Runner::run_cell(const ExperimentConfig& config,
                            const baselines::ProfileStore& store,
                            std::shared_ptr<ThreadPool> policy_pool, int lane_threads,
                            bool force_profile) {
  std::shared_ptr<obs::Telemetry> telemetry;
  if (config.obs.collect()) telemetry = std::make_shared<obs::Telemetry>();
  std::shared_ptr<prof::Profiler> profile;
  if (force_profile || config.obs.profile()) profile = std::make_shared<prof::Profiler>();
  return execute_cell(config, store, std::move(policy_pool), lane_threads, std::move(telemetry),
                      std::move(profile), nullptr);
}

std::vector<CellResult> Runner::run(const std::vector<ExperimentConfig>& cells) {
  // Front-load every distinct profile store serially: cells then only read
  // immutable fitted models, whatever order they execute in.
  std::set<std::uint64_t> profile_seeds;
  for (const auto& c : cells) profile_seeds.insert(c.profile_seed);
  for (const std::uint64_t s : profile_seeds) profiles(s);

  std::vector<CellResult> out(cells.size());
  std::mutex progress_mu;
  std::size_t done = 0;
  const auto one = [&](std::size_t i) {
    out[i] = run_cell(cells[i], profiles(cells[i].profile_seed), policy_pool_,
                      options_.lane_threads, options_.profiler != nullptr);
    if (options_.progress) {
      std::lock_guard lock(progress_mu);
      ++done;
      std::cerr << "[exp] " << done << "/" << cells.size() << " "
                << cells[i].display_name() << " seed=" << cells[i].seed << " ("
                << TextTable::num(out[i].wall_seconds, 2) << " s)\n";
    }
  };

  if (options_.threads == 1 || cells.size() <= 1) {
    for (std::size_t i = 0; i < cells.size(); ++i) one(i);
  } else {
    ThreadPool sweep_pool(options_.threads);
    parallel_for(sweep_pool, cells.size(), one);
  }
  if (options_.profiler != nullptr) {
    // Merge in input order — the aggregate breakdown is then independent of
    // which thread finished which cell first.
    for (const auto& cell : out)
      if (cell.profile != nullptr) options_.profiler->merge(*cell.profile);
  }
  return out;
}

}  // namespace smiless::exp
