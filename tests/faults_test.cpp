#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "apps/catalog.hpp"
#include "cluster/cluster.hpp"
#include "common/json.hpp"
#include "faults/fault_injector.hpp"
#include "faults/fault_io.hpp"
#include "serverless/platform.hpp"
#include "serverless/platform_view.hpp"
#include "sim/engine.hpp"

namespace smiless::serverless {
namespace {

class FixedPolicy : public Policy {
 public:
  explicit FixedPolicy(FunctionPlan plan) : plan_(plan) {}
  std::string name() const override { return "fixed"; }
  void on_deploy(AppId app, const apps::App& spec, PlatformView& p) override {
    for (std::size_t n = 0; n < spec.dag.size(); ++n)
      p.set_plan(app, static_cast<dag::NodeId>(n), plan_);
  }

 private:
  FunctionPlan plan_;
};

/// Records every on_instance_failed notification.
class RecordingPolicy : public FixedPolicy {
 public:
  using FixedPolicy::FixedPolicy;
  void on_instance_failed(AppId, const apps::App&, PlatformView&, dag::NodeId node,
                          InstanceFailure kind) override {
    failures.push_back({node, kind});
  }
  std::vector<std::pair<dag::NodeId, InstanceFailure>> failures;
};

FunctionPlan warm_plan() {
  FunctionPlan p;
  p.config = {perf::Backend::Cpu, 4, 0};
  p.keepalive = FunctionPlan::forever();
  return p;
}

apps::App single_node_app(double sla = 30.0) {
  apps::App app;
  app.name = "single";
  app.sla = sla;
  app.dag.add_node("QA");
  app.truth.push_back(apps::model_by_name("QA"));
  return app;
}

struct Fixture {
  sim::Engine engine;
  cluster::Cluster cluster;
  Rng rng{123};
  std::unique_ptr<faults::FaultInjector> injector;
  std::unique_ptr<Platform> platform;

  explicit Fixture(faults::FaultSpec spec, PlatformOptions options = {},
                   cluster::Cluster cl = cluster::Cluster::paper_testbed())
      : cluster(std::move(cl)) {
    options.inference_noise = 0.0;
    injector = std::make_unique<faults::FaultInjector>(spec, rng);
    if (injector->enabled()) options.faults = injector.get();
    platform = std::make_unique<Platform>(engine, cluster, perf::Pricing{}, rng, options);
    injector->arm(engine, cluster);
  }

  PlatformView view() { return PlatformView(*platform); }
};

// --- FaultInjector unit behaviour -------------------------------------------

TEST(FaultInjector, DisabledSpecLeavesParentRngUntouched) {
  Rng a(99), b(99);
  faults::FaultInjector injector(faults::FaultSpec{}, a);
  EXPECT_FALSE(injector.enabled());
  // The fork would have consumed a draw; identical next values prove it
  // did not happen — the fault-free trajectory is bit-identical.
  EXPECT_EQ(a.engine()(), b.engine()());
  EXPECT_FALSE(injector.sample_init_failure());
  EXPECT_DOUBLE_EQ(injector.inflate_inference(1.25), 1.25);
}

TEST(FaultInjector, StragglerInflatesByFactor) {
  Rng rng(5);
  faults::FaultSpec spec;
  spec.straggler_prob = 1.0;
  spec.straggler_factor = 4.0;
  faults::FaultInjector injector(spec, rng);
  EXPECT_DOUBLE_EQ(injector.inflate_inference(0.5), 2.0);
  EXPECT_EQ(injector.stats().stragglers, 1);
  // Init failures stay off: that knob was not set.
  EXPECT_FALSE(injector.sample_init_failure());
}

TEST(FaultInjector, CertainInitFailure) {
  Rng rng(5);
  faults::FaultSpec spec;
  spec.init_failure_prob = 1.0;
  faults::FaultInjector injector(spec, rng);
  EXPECT_TRUE(injector.sample_init_failure());
  EXPECT_TRUE(injector.sample_init_failure());
  EXPECT_EQ(injector.stats().init_failures, 2);
}

TEST(FaultInjector, ScheduledCrashTakesMachineDownAndBack) {
  sim::Engine engine;
  cluster::Cluster cluster(2, {4, 0});
  Rng rng(7);
  faults::FaultSpec spec;
  spec.crashes.push_back({/*machine=*/0, /*at=*/5.0, /*duration=*/10.0});
  faults::FaultInjector injector(spec, rng);
  injector.arm(engine, cluster);

  engine.run_until(6.0);
  EXPECT_FALSE(cluster.machine_up(0));
  EXPECT_TRUE(cluster.machine_up(1));
  engine.run_until(20.0);
  EXPECT_TRUE(cluster.machine_up(0));
  EXPECT_EQ(injector.stats().crashes, 1);
  EXPECT_EQ(injector.stats().recoveries, 1);
}

TEST(FaultInjector, RandomCrashesRespectHorizonAndRecover) {
  sim::Engine engine;
  cluster::Cluster cluster(4, {4, 0});
  Rng rng(11);
  faults::FaultSpec spec;
  spec.crash_rate = 0.05;  // expect ~20 machine-crashes over 100 s x 4 machines
  spec.mttr = 5.0;
  spec.crash_horizon = 100.0;
  faults::FaultInjector injector(spec, rng);
  injector.arm(engine, cluster);

  engine.run_until(1000.0);  // far past the horizon: everything must be back up
  EXPECT_GT(injector.stats().crashes, 0);
  EXPECT_EQ(injector.stats().crashes, injector.stats().recoveries);
  for (int m = 0; m < 4; ++m) EXPECT_TRUE(cluster.machine_up(m));
}

// --- Platform failure semantics ---------------------------------------------

/// Parse `doc` as a FaultSpec and expect an error naming `key` and the
/// value it got.
void expect_fault_error(const std::string& doc, const std::string& key,
                        const std::string& got) {
  try {
    faults::fault_spec_from_json(json::Value::parse(doc));
    FAIL() << "fault spec must be rejected: " << doc;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("'" + key + "'"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("got " + got), std::string::npos) << e.what();
  }
}

TEST(FaultIo, RejectsProbabilitiesOutsideUnitInterval) {
  expect_fault_error(R"({"init_failure_prob": 1.5})", "init_failure_prob", "1.5");
  expect_fault_error(R"({"straggler_prob": -0.1})", "straggler_prob", "-0.1");
}

TEST(FaultIo, RejectsStragglerFactorBelowOne) {
  expect_fault_error(R"({"straggler_factor": 0.5})", "straggler_factor", "0.5");
}

TEST(FaultIo, RejectsNegativeCrashRate) {
  expect_fault_error(R"({"crash_rate": -0.01})", "crash_rate", "-0.01");
}

TEST(FaultIo, RejectsNonPositiveMttr) {
  expect_fault_error(R"({"mttr": 0})", "mttr", "0.0");
}

TEST(FaultIo, RejectsNonPositiveCrashDuration) {
  expect_fault_error(R"({"crashes": [{"machine": 1, "at": 5, "duration": 30},
                                     {"machine": 2, "at": 5, "duration": 0}]})",
                     "crashes[1].duration", "0.0");
}

TEST(FaultIo, AcceptsTheBoundaries) {
  const faults::FaultSpec spec = faults::fault_spec_from_json(json::Value::parse(
      R"({"init_failure_prob": 1, "straggler_prob": 0, "straggler_factor": 1,
          "crash_rate": 0})"));
  EXPECT_EQ(spec.init_failure_prob, 1.0);
  EXPECT_EQ(spec.straggler_factor, 1.0);
}

TEST(PlatformFaults, InitFailureRetriesUntilSuccess) {
  // Fail every init with p=0.5; with unbounded retries the request must
  // still complete, paying extra initializations.
  faults::FaultSpec spec;
  spec.init_failure_prob = 0.5;
  PlatformOptions options;
  options.max_retries = -1;  // unbounded
  Fixture f(spec, options);

  const auto id = f.platform->deploy(single_node_app(), std::make_shared<FixedPolicy>(warm_plan()));
  f.platform->submit_request(id, 1.0);
  f.engine.run_until(300.0);
  f.platform->finalize(300.0);

  const auto& m = f.platform->metrics(id);
  ASSERT_EQ(m.completed.size(), 1u);
  EXPECT_EQ(m.failed, 0);
  EXPECT_GE(m.total_init_failures(), 0);
  // Every failed attempt is billed: initializations = failures + 1 success.
  EXPECT_EQ(m.total_initializations(), m.total_init_failures() + 1);
}

TEST(PlatformFaults, RetryBudgetExhaustedFailsRequest) {
  // Certain init failure + a small retry budget: the request must reach the
  // terminal Failed state instead of retrying forever.
  faults::FaultSpec spec;
  spec.init_failure_prob = 1.0;
  PlatformOptions options;
  options.max_retries = 3;
  Fixture f(spec, options);

  const auto id = f.platform->deploy(single_node_app(), std::make_shared<FixedPolicy>(warm_plan()));
  f.platform->submit_request(id, 1.0);
  f.engine.run_until(300.0);
  f.platform->finalize(300.0);

  const auto& m = f.platform->metrics(id);
  EXPECT_EQ(m.completed.size(), 0u);
  EXPECT_EQ(m.failed, 1);
  EXPECT_EQ(f.platform->ledger().in_flight(id), 0);  // failed requests leave the books
  EXPECT_EQ(m.total_init_failures(), m.total_initializations());
  // Budget semantics: the initial attempt plus max_retries retries.
  EXPECT_EQ(m.total_initializations(), 1 + options.max_retries);
}

TEST(PlatformFaults, AllocationRetryBudgetExhaustedFailsRequest) {
  // A cluster too small for the plan: allocation never succeeds, the
  // bounded backoff loop runs dry and the queued request fails. This is the
  // retry_delay-semantics regression test: bounded, not one-shot.
  faults::FaultSpec spec;  // no faults needed; pure capacity starvation
  PlatformOptions options;
  options.max_retries = 4;
  Fixture f(spec, options, cluster::Cluster(1, {1, 0}));  // 1 core < 4 wanted

  const auto id = f.platform->deploy(single_node_app(), std::make_shared<FixedPolicy>(warm_plan()));
  f.platform->submit_request(id, 1.0);
  f.engine.run_until(120.0);
  f.platform->finalize(120.0);

  const auto& m = f.platform->metrics(id);
  EXPECT_EQ(m.completed.size(), 0u);
  EXPECT_EQ(m.failed, 1);
  EXPECT_EQ(m.total_retries(), 4);  // exactly the budget
  EXPECT_EQ(m.total_initializations(), 0);
}

TEST(PlatformFaults, RequestTimeoutFailsStuckRequest) {
  // Capacity starvation again, but with unbounded retries and a finite
  // per-invocation timeout: the timeout is what fails the request.
  faults::FaultSpec spec;
  PlatformOptions options;
  options.max_retries = -1;
  options.request_timeout = 10.0;
  Fixture f(spec, options, cluster::Cluster(1, {1, 0}));

  const auto id = f.platform->deploy(single_node_app(), std::make_shared<FixedPolicy>(warm_plan()));
  f.platform->submit_request(id, 1.0);
  f.engine.run_until(8.0);
  EXPECT_EQ(f.platform->ledger().in_flight(id), 1);  // still waiting
  f.engine.run_until(120.0);
  f.platform->finalize(120.0);

  const auto& m = f.platform->metrics(id);
  EXPECT_EQ(m.completed.size(), 0u);
  EXPECT_EQ(m.failed, 1);
  EXPECT_EQ(m.total_timeouts(), 1);
  EXPECT_EQ(f.platform->ledger().in_flight(id), 0);
}

TEST(PlatformFaults, TimeoutDoesNotFireOnCompletedRequests) {
  faults::FaultSpec spec;
  PlatformOptions options;
  options.request_timeout = 60.0;  // generous: never hit
  Fixture f(spec, options);

  const auto id = f.platform->deploy(apps::make_voice_assistant(),
                                     std::make_shared<FixedPolicy>(warm_plan()));
  f.platform->submit_request(id, 1.0);
  f.platform->submit_request(id, 30.0);
  f.engine.run_until(200.0);
  f.platform->finalize(200.0);

  const auto& m = f.platform->metrics(id);
  EXPECT_EQ(m.completed.size(), 2u);
  EXPECT_EQ(m.failed, 0);
  EXPECT_EQ(m.total_timeouts(), 0);
}

TEST(PlatformFaults, MachineCrashEvictsAndRedispatches) {
  // One 2-machine cluster; the warm instance lands on machine 0 (first
  // fit). Crash it mid-inference: the in-flight invocation is re-queued,
  // served by a fresh instance on machine 1, and the request completes.
  faults::FaultSpec spec;
  PlatformOptions options;
  Fixture f(spec, options, cluster::Cluster(2, {8, 0}));

  auto policy = std::make_shared<RecordingPolicy>(warm_plan());
  const auto id = f.platform->deploy(single_node_app(), policy);
  f.platform->submit_request(id, 1.0);
  // QA's cold init takes ~1.6 s, so at t=2 the instance is mid-init on m0.
  f.engine.schedule_at(2.0, [&] { f.cluster.mark_down(0); });
  f.engine.schedule_at(60.0, [&] { f.cluster.mark_up(0); });
  f.engine.run_until(200.0);
  f.platform->finalize(200.0);

  const auto& m = f.platform->metrics(id);
  ASSERT_EQ(m.completed.size(), 1u);
  EXPECT_EQ(m.failed, 0);
  EXPECT_EQ(m.total_evictions(), 1);
  ASSERT_EQ(policy->failures.size(), 1u);
  EXPECT_EQ(policy->failures[0].second, InstanceFailure::Eviction);
  // The replacement instance went to the surviving machine.
  EXPECT_EQ(m.total_initializations(), 2);
}

TEST(PlatformFaults, EvictionMidInferenceRetriesInvocation) {
  // Force the crash squarely inside the inference: submit, wait for the
  // instance to go busy, then take the machine down. The re-dispatched
  // invocation must carry a retry count.
  faults::FaultSpec spec;
  PlatformOptions options;
  options.record_traces = true;
  Fixture f(spec, options, cluster::Cluster(2, {8, 0}));

  auto policy = std::make_shared<RecordingPolicy>(warm_plan());
  const auto id = f.platform->deploy(single_node_app(), policy);
  f.platform->submit_request(id, 1.0);

  // Poll finely (QA's busy window on 4 cores is only ~0.3 s wide); the
  // first time node 0 is busy, kill machine 0.
  for (int t = 10; t < 120; ++t) {
    f.engine.schedule_at(0.1 * t, [&] {
      if (f.cluster.machine_up(0) && f.view().instances_busy(id, 0) > 0)
        f.cluster.mark_down(0);
    });
  }
  f.engine.run_until(200.0);
  f.platform->finalize(200.0);

  const auto& m = f.platform->metrics(id);
  ASSERT_EQ(m.completed.size(), 1u);
  EXPECT_GE(m.total_evictions(), 1);
  EXPECT_GE(m.total_retries(), 1);
  // The completing span is marked as a retry attempt.
  ASSERT_EQ(m.traces.size(), 1u);
  ASSERT_FALSE(m.traces[0].spans.empty());
  EXPECT_GE(m.traces[0].spans.back().attempt, 1);
}

TEST(PlatformFaults, InitFailureNotifiesPolicy) {
  faults::FaultSpec spec;
  spec.init_failure_prob = 1.0;
  PlatformOptions options;
  options.max_retries = 1;
  Fixture f(spec, options);

  auto policy = std::make_shared<RecordingPolicy>(warm_plan());
  const auto id = f.platform->deploy(single_node_app(), policy);
  f.platform->submit_request(id, 1.0);
  f.engine.run_until(120.0);
  f.platform->finalize(120.0);

  ASSERT_FALSE(policy->failures.empty());
  for (const auto& [node, kind] : policy->failures) {
    EXPECT_EQ(node, 0);
    EXPECT_EQ(kind, InstanceFailure::InitFailure);
  }
}

TEST(PlatformFaults, StragglersStretchLatencyButComplete) {
  faults::FaultSpec spec;
  spec.straggler_prob = 1.0;
  spec.straggler_factor = 5.0;
  Fixture slow(spec);
  Fixture fast(faults::FaultSpec{});

  const auto app = single_node_app();
  const auto id_slow =
      slow.platform->deploy(app, std::make_shared<FixedPolicy>(warm_plan()));
  const auto id_fast =
      fast.platform->deploy(app, std::make_shared<FixedPolicy>(warm_plan()));
  // Warm up with a first request, measure the second (no init in the path).
  for (const double t : {1.0, 60.0}) {
    slow.platform->submit_request(id_slow, t);
    fast.platform->submit_request(id_fast, t);
  }
  slow.engine.run_until(200.0);
  fast.engine.run_until(200.0);
  slow.platform->finalize(200.0);
  fast.platform->finalize(200.0);

  const auto& ms = slow.platform->metrics(id_slow);
  const auto& mf = fast.platform->metrics(id_fast);
  ASSERT_EQ(ms.completed.size(), 2u);
  ASSERT_EQ(mf.completed.size(), 2u);
  // Warm-path request: inference dominates, so 5x straggler inflation must
  // show up as roughly 5x E2E.
  EXPECT_GT(ms.completed[1].e2e(), 3.0 * mf.completed[1].e2e());
}

TEST(PlatformFaults, FaultFreeSpecBehavesExactlyLikeNoInjector) {
  // Belt and braces for the acceptance criterion: a Platform given a
  // *disabled* injector produces the same books as one given none.
  auto run = [](bool with_injector) {
    sim::Engine engine;
    cluster::Cluster cluster = cluster::Cluster::paper_testbed();
    Rng rng(123);
    faults::FaultInjector injector(faults::FaultSpec{}, rng);
    PlatformOptions options;
    options.inference_noise = 0.06;
    if (with_injector) options.faults = &injector;
    Platform platform(engine, cluster, perf::Pricing{}, rng, options);
    const auto id = platform.deploy(apps::make_voice_assistant(),
                                    std::make_shared<FixedPolicy>(warm_plan()));
    for (int i = 0; i < 20; ++i) platform.submit_request(id, 1.0 + 3.7 * i);
    engine.run_until(200.0);
    platform.finalize(200.0);
    const auto& m = platform.metrics(id);
    double e2e = 0.0;
    for (const auto& r : m.completed) e2e += r.e2e();
    return std::make_tuple(m.total_cost(), m.completed.size(), e2e);
  };
  EXPECT_EQ(run(false), run(true));
}

}  // namespace
}  // namespace smiless::serverless
