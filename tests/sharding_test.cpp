// Lane-equivalence suite for intra-cell sharding (DESIGN.md §14).
//
// The contracts under test, all byte-level:
//  - run_sharded with one lane reproduces the monolithic run_colocated
//    trajectory exactly (streaming arrival injection included);
//  - a single-app cell is invariant in the lane count K (the lone populated
//    lane inherits the whole cluster and the unmixed seed), across policies,
//    seeds, and with fault injection + observability on;
//  - a multi-app sharded cell is invariant in lane_threads (parallelism is
//    wall-clock only);
//  - a lane that fails mid-run surfaces its error from run_sharded.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "baselines/experiment.hpp"
#include "exp/config.hpp"
#include "exp/runner.hpp"
#include "obs/telemetry.hpp"
#include "serverless/policy.hpp"
#include "serverless/sharding.hpp"
#include "workload/trace.hpp"

using namespace smiless;

namespace {

/// Field-by-field byte equality of two run outcomes.
void expect_same_result(const baselines::RunResult& a, const baselines::RunResult& b) {
  EXPECT_EQ(a.policy, b.policy);
  EXPECT_EQ(a.app, b.app);
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.violation_ratio, b.violation_ratio);
  EXPECT_EQ(a.e2e, b.e2e);
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.invocations, b.invocations);
  EXPECT_EQ(a.initializations, b.initializations);
  EXPECT_EQ(a.init_failures, b.init_failures);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.cpu_core_seconds, b.cpu_core_seconds);
  EXPECT_EQ(a.gpu_pct_seconds, b.gpu_pct_seconds);
  ASSERT_EQ(a.windows.size(), b.windows.size());
  for (std::size_t i = 0; i < a.windows.size(); ++i) {
    EXPECT_EQ(a.windows[i].window_start, b.windows[i].window_start);
    EXPECT_EQ(a.windows[i].arrivals, b.windows[i].arrivals);
    EXPECT_EQ(a.windows[i].instances_total, b.windows[i].instances_total);
    EXPECT_EQ(a.windows[i].instances_cpu, b.windows[i].instances_cpu);
    EXPECT_EQ(a.windows[i].instances_gpu, b.windows[i].instances_gpu);
  }
}

/// Byte equality of every exported observability artifact.
void expect_same_telemetry(const obs::Telemetry& a, const obs::Telemetry& b) {
  EXPECT_EQ(a.bus().size(), b.bus().size());
  EXPECT_EQ(a.perfetto_json().dump(), b.perfetto_json().dump());
  EXPECT_EQ(a.metrics_json().dump(), b.metrics_json().dump());
  EXPECT_EQ(a.audit_json().dump(), b.audit_json().dump());
}

/// A single-app cell with faults and observability on — the full surface a
/// lane must reproduce.
exp::ExperimentConfig cell(const std::string& policy, std::uint64_t seed, int lanes) {
  exp::ExperimentConfig c;
  c.app = "wl1";
  c.policy = policy;
  c.seed = seed;
  c.trace.seed = seed;
  c.trace.duration = 120.0;
  c.lanes = lanes;
  c.faults.init_failure_prob = 0.05;
  c.faults.straggler_prob = 0.02;
  c.faults.crash_rate = 0.0005;
  c.faults.crash_horizon = 100.0;
  // Any non-empty artifact path turns collection on; run_cell never writes
  // the files itself, so the names are inert.
  c.obs.trace_out = "unused.json";
  c.obs.metrics_out = "unused.json";
  c.obs.audit_out = "unused.json";
  return c;
}

exp::Runner& runner() {
  static exp::Runner r(exp::RunnerOptions{});
  return r;
}

/// K=1 vs K in {2,4,8}, 2 policies x 2 seeds, faults + obs on. Single-app
/// cells must be invariant in K at the artifact byte level.
TEST(Sharding, SingleAppCellIsInvariantInLaneCount) {
  const auto& store = runner().profiles(2024);
  for (const std::string policy : {"smiless", "orion"}) {
    for (const std::uint64_t seed : {std::uint64_t{42}, std::uint64_t{1337}}) {
      const exp::CellResult base =
          exp::Runner::run_cell(cell(policy, seed, 1), store, runner().policy_pool());
      ASSERT_NE(base.telemetry, nullptr);
      for (const int k : {2, 4, 8}) {
        for (const int lane_threads : {1, 2}) {
          const exp::CellResult sharded = exp::Runner::run_cell(
              cell(policy, seed, k), store, runner().policy_pool(), lane_threads);
          SCOPED_TRACE(policy + " seed=" + std::to_string(seed) +
                       " lanes=" + std::to_string(k) +
                       " lane_threads=" + std::to_string(lane_threads));
          expect_same_result(base.result, sharded.result);
          ASSERT_NE(sharded.telemetry, nullptr);
          expect_same_telemetry(*base.telemetry, *sharded.telemetry);
        }
      }
    }
  }
}

/// The multi-app fixture: three preset apps under cheap baseline policies.
struct Deployment {
  std::vector<apps::App> apps;
  std::vector<workload::Trace> traces;

  explicit Deployment(double duration) {
    exp::ExperimentConfig c;
    c.trace.duration = duration;
    for (const char* name : {"wl1", "wl2", "wl3", "ipa"}) {
      c.app = name;
      apps.push_back(exp::resolve_app(c));
      traces.push_back(exp::build_trace(c, apps.back()));
    }
  }

  std::vector<baselines::ColocatedApp> colocated(const baselines::ProfileStore& store) const {
    std::vector<baselines::ColocatedApp> out;
    for (std::size_t i = 0; i < apps.size(); ++i) {
      baselines::PolicySettings settings;
      settings.pool = runner().policy_pool();
      out.push_back({apps[i], &traces[i],
                     baselines::make_policy(i % 2 == 0 ? baselines::PolicyKind::Orion
                                                       : baselines::PolicyKind::GrandSlam,
                                            apps[i], store, settings)});
    }
    return out;
  }
};

baselines::ExperimentOptions sharded_options(obs::Telemetry* tel, int lanes,
                                             int lane_threads) {
  baselines::ExperimentOptions o;
  o.seed = 7;
  o.lanes = lanes;
  o.lane_threads = lane_threads;
  o.faults.init_failure_prob = 0.03;
  o.faults.straggler_prob = 0.01;
  o.telemetry = tel;
  return o;
}

/// run_sharded with a single lane must replay run_colocated byte-for-byte —
/// this is what licenses the lanes>1 dispatch inside run_colocated.
TEST(Sharding, SingleLaneReproducesMonolithicColocatedRun) {
  const auto& store = runner().profiles(2024);
  const Deployment dep(90.0);

  obs::Telemetry mono_tel;
  const auto mono =
      baselines::run_colocated(dep.colocated(store), sharded_options(&mono_tel, 1, 0));

  obs::Telemetry lane_tel;
  const auto sharded =
      baselines::run_sharded(dep.colocated(store), sharded_options(&lane_tel, 1, 0));

  ASSERT_EQ(mono.size(), sharded.size());
  for (std::size_t i = 0; i < mono.size(); ++i) {
    SCOPED_TRACE("app " + mono[i].app);
    expect_same_result(mono[i], sharded[i]);
  }
  expect_same_telemetry(mono_tel, lane_tel);
}

/// A genuinely partitioned cell (4 apps over 4 lanes) must not care how many
/// threads step the lanes.
TEST(Sharding, MultiAppShardIsInvariantInLaneThreads) {
  const auto& store = runner().profiles(2024);
  const Deployment dep(90.0);

  obs::Telemetry serial_tel;
  const auto serial =
      baselines::run_sharded(dep.colocated(store), sharded_options(&serial_tel, 4, 1));

  for (const int lane_threads : {2, 4}) {
    obs::Telemetry tel;
    const auto parallel =
        baselines::run_sharded(dep.colocated(store), sharded_options(&tel, 4, lane_threads));
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      SCOPED_TRACE("lane_threads=" + std::to_string(lane_threads) + " app " + serial[i].app);
      expect_same_result(serial[i], parallel[i]);
    }
    expect_same_telemetry(serial_tel, tel);
  }
}

/// Forwards every hook to the wrapped policy, except that its `fail_at`-th
/// on_window throws instead.
class FailingPolicy final : public serverless::Policy {
 public:
  FailingPolicy(std::shared_ptr<serverless::Policy> inner, int fail_at)
      : inner_(std::move(inner)), fail_at_(fail_at) {}

  std::string name() const override { return inner_->name(); }
  void on_deploy(serverless::AppId app, const apps::App& spec,
                 serverless::PlatformView& platform) override {
    inner_->on_deploy(app, spec, platform);
  }
  void on_window(serverless::AppId app, const apps::App& spec,
                 serverless::PlatformView& platform,
                 const serverless::WindowStats& stats) override {
    if (++windows_ == fail_at_)
      throw std::runtime_error("policy failed in window " + std::to_string(windows_));
    inner_->on_window(app, spec, platform, stats);
  }
  void on_arrival(serverless::AppId app, const apps::App& spec,
                  serverless::PlatformView& platform, SimTime now) override {
    inner_->on_arrival(app, spec, platform, now);
  }
  void on_instance_failed(serverless::AppId app, const apps::App& spec,
                          serverless::PlatformView& platform, dag::NodeId node,
                          serverless::InstanceFailure kind) override {
    inner_->on_instance_failed(app, spec, platform, node, kind);
  }
  void set_audit_log(obs::AuditLog* audit) override { inner_->set_audit_log(audit); }

 private:
  std::shared_ptr<serverless::Policy> inner_;
  int fail_at_;
  int windows_ = 0;
};

/// A lane whose policy throws a few windows in must end run_sharded with
/// that error — serially and with lanes on competing threads — instead of
/// hanging or losing it while the other lanes run on.
TEST(Sharding, FailingLaneRethrowsItsError) {
  const auto& store = runner().profiles(2024);
  const Deployment dep(90.0);
  for (const int lane_threads : {1, 2}) {
    SCOPED_TRACE("lane_threads=" + std::to_string(lane_threads));
    auto apps = dep.colocated(store);
    apps[2].policy = std::make_shared<FailingPolicy>(std::move(apps[2].policy), 5);
    try {
      baselines::run_sharded(std::move(apps), sharded_options(nullptr, 4, lane_threads));
      FAIL() << "run_sharded must rethrow the lane's error";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "policy failed in window 5");
    }
  }
}

/// The partition itself is a pure function: stable across calls, total over
/// lanes, identity-friendly for K=1.
TEST(Sharding, PartitionIsStableAndTotal) {
  for (std::size_t g = 0; g < 64; ++g) {
    EXPECT_EQ(serverless::ShardedPlatform::lane_for(g, 1), 0);
    for (const int k : {2, 4, 8}) {
      const int lane = serverless::ShardedPlatform::lane_for(g, k);
      EXPECT_GE(lane, 0);
      EXPECT_LT(lane, k);
      EXPECT_EQ(lane, serverless::ShardedPlatform::lane_for(g, k));
    }
  }
}

}  // namespace
