#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "baselines/experiment.hpp"
#include "common/json.hpp"
#include "concurrency/thread_pool.hpp"
#include "faults/fault_injector.hpp"
#include "serverless/platform.hpp"
#include "workload/trace.hpp"

namespace smiless::obs {
class Telemetry;
}  // namespace smiless::obs

namespace smiless::exp {

/// How a cell obtains its arrival process. Everything a generated trace
/// depends on lives here; the actual RNG stream is forked per cell from
/// `seed` mixed with the application name (as the benches always did), so a
/// cell's trace never depends on which thread — or which sibling cell —
/// ran first.
struct TraceSpec {
  /// "preset"  — the Azure-like per-workload preset (§VII-A);
  /// "regular" — near-periodic arrivals every `interval` seconds;
  /// "burst"   — the violent Fig. 14/15 burst window;
  /// "csv"     — replay `file`.
  std::string kind = "preset";
  double duration = 600.0;  ///< generated-trace length (s)
  std::uint64_t seed = 42;  ///< trace RNG seed (mixed with the app name)
  double interval = 10.0;   ///< "regular": mean gap (s)
  double jitter = 0.05;     ///< "regular": relative jitter
  double quiet_rate = 0.5;  ///< "burst": baseline rps
  double peak_rate = 12.0;  ///< "burst": peak rps
  std::string file;         ///< "csv": path to replay

  json::Value to_json() const;
  static TraceSpec from_json(const json::Value& v);
};

struct CellContext;

/// Where a run's observability artifacts go. Empty paths disable the
/// corresponding collector entirely — with every path empty no telemetry is
/// attached and the run is byte-identical to a build without this subsystem.
/// In a sweep the paths name combined files: every cell contributes, in
/// deterministic cell order, regardless of how many threads executed it.
struct ObservabilityOptions {
  std::string trace_out;    ///< Perfetto/Chrome trace-event JSON
  std::string metrics_out;  ///< counters/gauges/histograms JSON
  std::string audit_out;    ///< policy decision audit JSON
  std::string windows_out;  ///< per-window time series CSV
  std::string series_out;   ///< fixed-cadence obs::TimeSeries JSON
  std::string report_out;   ///< self-contained HTML serving report
  std::string profile_out;  ///< runtime self-profiler breakdown JSON

  /// Cadence (sim seconds) of the obs::TimeSeries collected when
  /// series_out or report_out is set. Serialized with the config so a
  /// report is reproducible from it; excluded (with the whole obs block)
  /// from group_key, so sweeping it never splits aggregation groups.
  double series_cadence = 1.0;

  /// True when any collector needs a Telemetry attached to the run.
  bool collect() const {
    return !trace_out.empty() || !metrics_out.empty() || !audit_out.empty() ||
           !series_out.empty() || !report_out.empty();
  }
  /// True when the runtime self-profiler should be attached to the run
  /// (wall-clock scope timers + sampled counters; trajectory-neutral).
  bool profile() const { return !profile_out.empty() || !report_out.empty(); }
  /// True when any artifact at all will be written.
  bool any() const { return collect() || !windows_out.empty() || !profile_out.empty(); }

  json::Value to_json() const;
  static ObservabilityOptions from_json(const json::Value& v);
};

/// One fully-specified experiment cell: everything `run_experiment` needs,
/// as data. The whole struct (minus the programmatic override below)
/// round-trips through JSON, so any run is reproducible from one config
/// file: `smiless --config run.json` / `smiless --save-config run.json`.
struct ExperimentConfig {
  std::string label;             ///< grid cell name; cosmetic, set by expand()
  std::string app = "wl3";       ///< preset (wl1|wl2|wl3|ipa) or manifest path
  std::string policy = "smiless";  ///< baselines::parse_policy_kind spelling
  double sla = 2.0;              ///< end-to-end target (s)
  bool use_lstm = true;          ///< LSTM predictors vs statistical fallbacks
  std::uint64_t seed = 42;       ///< run RNG (platform noise, faults fork off it)
  std::uint64_t profile_seed = 2024;  ///< offline-profiler sampling RNG
  double drain_slack = 120.0;    ///< extra sim time to drain in-flight requests
  /// Intra-cell sharding degree (DESIGN.md §14): the number of
  /// deterministic lanes, >= 1 (from_json and ExperimentGrid reject less).
  /// Part of the cell's identity (serialized, swept); the lane *thread*
  /// count is a runner option because it never changes results.
  int lanes = 1;
  TraceSpec trace;
  serverless::PlatformOptions platform;
  faults::FaultSpec faults;
  ObservabilityOptions obs;

  /// Escape hatch for ablation studies that need hand-built policy options:
  /// when set, the runner calls this instead of baselines::make_policy.
  /// Deliberately NOT serialized — a config file always names a zoo policy.
  std::function<std::shared_ptr<serverless::Policy>(const CellContext&)> policy_override;

  /// Display name: the label when set, else "policy/app".
  std::string display_name() const;

  json::Value to_json() const;
  static ExperimentConfig from_json(const json::Value& v);

  /// Serialized identity of the cell *excluding* the run/trace seeds and
  /// the label: cells that differ only by seed share a group key and
  /// aggregate into one row (mean/CI across seed replicates).
  std::string group_key() const;
};

/// Everything a policy_override (or emitter) may want to look at when the
/// runner materializes a cell.
struct CellContext {
  const ExperimentConfig& config;
  const apps::App& app;
  const workload::Trace& trace;
  const baselines::ProfileStore& profiles;
  std::shared_ptr<ThreadPool> pool;  ///< inner pool for policy solvers (may be null)
  /// The cell's observability bundle; null when config.obs collects nothing.
  /// Overrides building a SMIless-family policy should attach its audit().
  obs::Telemetry* telemetry = nullptr;
};

/// A declarative sweep: a base config plus value lists for any subset of
/// axes. `expand()` yields the cross product in a fixed nesting order
/// (app, policy, sla, duration, init_failure_prob, straggler_prob,
/// crash_rate, use_lstm, seed, lanes — outermost to innermost), so cell
/// order, and therefore every ordered reduction downstream, is
/// deterministic.
struct ExperimentGrid {
  ExperimentConfig base;
  std::vector<std::string> apps;
  std::vector<std::string> policies;
  std::vector<double> slas;
  std::vector<double> durations;
  std::vector<double> init_failure_probs;
  std::vector<double> straggler_probs;
  std::vector<double> crash_rates;
  std::vector<bool> use_lstms;
  std::vector<std::uint64_t> seeds;
  std::vector<int> lanes;

  std::size_t cell_count() const;
  std::vector<ExperimentConfig> expand() const;

  json::Value to_json() const;
  static ExperimentGrid from_json(const json::Value& v);
  static ExperimentGrid load(const std::string& path);
  void save(const std::string& path) const;
};

/// Resolve the config's app string: a preset name or an app-manifest file.
/// Throws std::runtime_error for an unknown app.
apps::App resolve_app(const ExperimentConfig& config);

/// Materialize the cell's arrival process per its TraceSpec (deterministic
/// in the spec and the app name). Throws for an unknown kind / missing file.
workload::Trace build_trace(const ExperimentConfig& config, const apps::App& app);

}  // namespace smiless::exp
