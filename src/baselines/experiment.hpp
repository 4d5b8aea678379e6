#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "concurrency/thread_pool.hpp"
#include "faults/fault_injector.hpp"
#include "profiler/offline_profiler.hpp"
#include "serverless/metrics.hpp"
#include "serverless/platform.hpp"
#include "workload/trace.hpp"

namespace smiless::obs {
class AuditLog;
class Telemetry;
}  // namespace smiless::obs

namespace smiless::sim {
class Clock;
}  // namespace smiless::sim

namespace smiless::baselines {

/// Fitted performance models shared by every policy of one experiment —
/// the output of the Offline Profiler, looked up by function name.
class ProfileStore {
 public:
  /// Profile the whole Table-I catalog once with the given profiler.
  ProfileStore(const profiler::OfflineProfiler& profiler, Rng& rng);

  const perf::FunctionPerf& fitted(const std::string& name) const;

  /// Fitted profiles for an app, indexed by DAG node id. Synthetic node
  /// names ("TRS#3") resolve by their catalog prefix.
  std::vector<perf::FunctionPerf> for_app(const apps::App& app) const;

  const std::vector<profiler::ProfileResult>& results() const { return results_; }

 private:
  std::vector<profiler::ProfileResult> results_;
};

/// Per-run knobs.
struct ExperimentOptions {
  std::uint64_t seed = 42;
  double drain_slack = 120.0;  ///< extra sim time to drain in-flight requests

  /// Intra-cell sharding (DESIGN.md §14): the apps are hash-partitioned
  /// into this many deterministic lanes (>= 1), each a private world over a
  /// slice of the testbed. Output is bit-identical at any lane_threads; a
  /// deployment whose apps all land in one lane (any single-app run) is
  /// invariant in lanes.
  int lanes = 1;
  /// Threads running the lanes, each lane to the horizon on one thread
  /// (0 = hardware concurrency, 1 = serial). Wall-clock only — never
  /// changes results.
  int lane_threads = 0;

  serverless::PlatformOptions platform;
  /// Fault injection for the run; the default (all zero) is fault-free and
  /// reproduces the exact fault-less trajectory for a given seed.
  faults::FaultSpec faults;

  /// Optional observability bundle (non-owning; must outlive the run). When
  /// set, the platform and fault injector publish to its event bus, apps are
  /// registered for track naming and the run's books are mirrored into its
  /// metric registry after finalize. Null keeps the run observation-free;
  /// the simulated trajectory is identical either way.
  obs::Telemetry* telemetry = nullptr;

  /// Optional runtime self-profiler (non-owning; must outlive the run).
  /// When set, the engine and the platform record wall-clock
  /// scope timings and sampled internal counters into it (per lane under
  /// sharding, merged back with a per-lane breakdown). Wall-clock only:
  /// the trajectory and every golden-compared artifact are identical with
  /// or without it. See src/prof/profiler.hpp.
  prof::Profiler* profiler = nullptr;

  /// Fixed cadence (sim seconds) of the obs::TimeSeries recorded by
  /// `telemetry`; 0 disables the series. Deterministic sim-time data —
  /// byte-stable at any threads/lane_threads/lanes setting.
  double series_cadence = 0.0;

  /// Optional pacing clock (non-owning; must outlive the run; DESIGN.md
  /// §16). Null runs the cell as a discrete-event simulation. Non-null
  /// waits for each simulated instant on the clock before firing it — the
  /// live-serving mode — with a trajectory identical to the null run; it
  /// needs every app in one lane (see ShardedPlatform::run).
  sim::Clock* clock = nullptr;
};

/// Outcome of serving one trace with one policy.
struct RunResult {
  std::string policy;
  std::string app;
  Dollars cost = 0.0;
  double violation_ratio = 0.0;  ///< undelivered requests count as violations
  std::vector<double> e2e;       ///< per completed request
  long submitted = 0;
  long completed = 0;
  long failed = 0;  ///< terminal Failed requests (timeout / retries exhausted)
  long invocations = 0;
  long initializations = 0;
  long init_failures = 0;
  long evictions = 0;
  long retries = 0;
  long timeouts = 0;
  double cpu_core_seconds = 0.0;
  double gpu_pct_seconds = 0.0;
  std::vector<serverless::WindowSample> windows;
  /// Per-request traces of the completed requests, in completion order;
  /// empty unless PlatformOptions::record_traces was set.
  std::vector<serverless::RequestTrace> traces;

  /// Fraction of submitted requests that completed.
  double goodput() const {
    return submitted == 0 ? 1.0 : static_cast<double>(completed) / static_cast<double>(submitted);
  }
};

/// Serve `trace` against `app` under `policy` on the paper's 8-machine
/// testbed and collect the books.
RunResult run_experiment(const apps::App& app, const workload::Trace& trace,
                         std::shared_ptr<serverless::Policy> policy,
                         const ExperimentOptions& options);

/// One application of a co-located deployment.
struct ColocatedApp {
  apps::App app;
  const workload::Trace* trace = nullptr;
  std::shared_ptr<serverless::Policy> policy;
};

/// The paper's actual setup (§VII-A): every application runs on the *same*
/// 8-machine cluster with its own load generator, all simultaneously, so
/// the policies contend for CPU cores and GPU slices. The apps are spread
/// over `options.lanes` lanes of one serverless::ShardedPlatform, the only
/// cell runner. Returns one RunResult per application, in input order.
std::vector<RunResult> run_colocated(std::vector<ColocatedApp> apps,
                                     const ExperimentOptions& options);

/// The policy zoo of the evaluation section.
enum class PolicyKind {
  Smiless,
  SmilessHomo,   ///< CPU-only ablation (Fig. 13)
  SmilessNoDag,  ///< simultaneous warming ablation (Fig. 13)
  Opt,           ///< exhaustive search + oracle arrivals + true profiles
  Orion,
  IceBreaker,
  GrandSlam,
  Aquatope,
};

std::string policy_kind_name(PolicyKind kind);

/// Inverse of policy_kind_name, also accepting the CLI/config spellings
/// ("smiless", "smiless-homo", "grandslam", ...). Returns nullopt for an
/// unknown name.
std::optional<PolicyKind> parse_policy_kind(const std::string& name);

/// Every kind, in evaluation-section order (SMIless first, OPT last).
const std::vector<PolicyKind>& all_policy_kinds();

struct PolicySettings {
  bool use_lstm = true;
  std::shared_ptr<ThreadPool> pool;
  /// Required for PolicyKind::Opt: the exact arrival process.
  const workload::Trace* oracle_trace = nullptr;
  /// Optional decision audit log attached to SMIless-family policies.
  obs::AuditLog* audit = nullptr;
};

/// Build a policy for one application. SMIless variants receive the fitted
/// profiles; OPT receives ground truth and the oracle trace.
std::shared_ptr<serverless::Policy> make_policy(PolicyKind kind, const apps::App& app,
                                                const ProfileStore& store,
                                                const PolicySettings& settings);

}  // namespace smiless::baselines
