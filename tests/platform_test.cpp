#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <utility>
#include <vector>

#include "apps/catalog.hpp"
#include "cluster/cluster.hpp"
#include "common/check.hpp"
#include "obs/event_bus.hpp"
#include "serverless/platform.hpp"
#include "serverless/platform_view.hpp"
#include "sim/engine.hpp"

namespace smiless::serverless {
namespace {

/// Static test policy: installs a fixed plan for every function.
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

struct Fixture {
  sim::Engine engine;
  cluster::Cluster cluster = cluster::Cluster::paper_testbed();
  Rng rng{123};
  PlatformOptions options;
  std::unique_ptr<Platform> platform;

  explicit Fixture(double noise = 0.0) {
    options.inference_noise = noise;
    platform = std::make_unique<Platform>(engine, cluster, perf::Pricing{}, rng, options);
  }

  PlatformView view() { return PlatformView(*platform); }
};

FunctionPlan warm_plan() {
  FunctionPlan p;
  p.config = {perf::Backend::Cpu, 4, 0};
  p.keepalive = FunctionPlan::forever();
  return p;
}

TEST(Platform, SingleRequestCompletesThroughPipeline) {
  Fixture f;
  const auto id = f.platform->deploy(apps::make_voice_assistant(),
                                     std::make_shared<FixedPolicy>(warm_plan()));
  f.platform->submit_request(id, 1.0);
  f.engine.run_until(200.0);
  f.platform->finalize(200.0);

  const auto& m = f.platform->metrics(id);
  ASSERT_EQ(m.completed.size(), 1u);
  EXPECT_EQ(m.submitted, 1);
  // E2E includes the cold init of every stage (no pre-warming here).
  EXPECT_GT(m.completed[0].e2e(), 1.0);
}

TEST(Platform, ColdStartOnlyOnFirstOfTwoSpacedRequests) {
  Fixture f;
  const auto app = apps::make_voice_assistant();
  const auto id = f.platform->deploy(app, std::make_shared<FixedPolicy>(warm_plan()));
  f.platform->submit_request(id, 1.0);
  f.platform->submit_request(id, 60.0);
  f.engine.run_until(200.0);
  f.platform->finalize(200.0);

  const auto& m = f.platform->metrics(id);
  ASSERT_EQ(m.completed.size(), 2u);
  // Keep-alive forever: each function initialised exactly once.
  EXPECT_EQ(m.total_initializations(), static_cast<long>(app.dag.size()));
  // Second request is much faster (warm path).
  EXPECT_LT(m.completed[1].e2e(), m.completed[0].e2e() * 0.5);
}

TEST(Platform, DagFanOutExecutesAllFunctions) {
  Fixture f;
  const auto app = apps::make_amber_alert();
  const auto id = f.platform->deploy(app, std::make_shared<FixedPolicy>(warm_plan()));
  f.platform->submit_request(id, 1.0);
  f.engine.run_until(300.0);
  f.platform->finalize(300.0);

  const auto& m = f.platform->metrics(id);
  ASSERT_EQ(m.completed.size(), 1u);
  for (std::size_t n = 0; n < app.dag.size(); ++n)
    EXPECT_EQ(m.per_function[n].invocations, 1) << app.dag.name(static_cast<dag::NodeId>(n));
}

TEST(Platform, ParallelBranchesOverlap) {
  // AMBER's three recognisers run concurrently: E2E under a warm start is
  // close to the critical path, far below the sum of all six stages.
  Fixture f;
  const auto app = apps::make_amber_alert();
  const auto id = f.platform->deploy(app, std::make_shared<FixedPolicy>(warm_plan()));
  // Warm everything with a first request, then measure the second.
  f.platform->submit_request(id, 1.0);
  f.platform->submit_request(id, 100.0);
  f.engine.run_until(300.0);
  f.platform->finalize(300.0);

  std::vector<double> w(app.dag.size());
  double sum = 0.0;
  for (std::size_t n = 0; n < app.dag.size(); ++n) {
    w[n] = app.truth[n].inference_time({perf::Backend::Cpu, 4, 0}, 1);
    sum += w[n];
  }
  const double critical = app.dag.critical_path_weight(w);
  const auto& m = f.platform->metrics(id);
  ASSERT_EQ(m.completed.size(), 2u);
  const double warm_e2e = m.completed[1].e2e();
  EXPECT_LT(warm_e2e, sum * 0.8);
  EXPECT_NEAR(warm_e2e, critical, 0.35 * critical);
}

TEST(Platform, KeepaliveZeroTerminatesAfterUse) {
  Fixture f;
  FunctionPlan plan = warm_plan();
  plan.keepalive = 0.0;
  const auto app = apps::make_voice_assistant();
  const auto id = f.platform->deploy(app, std::make_shared<FixedPolicy>(plan));
  f.platform->submit_request(id, 1.0);
  f.engine.run_until(100.0);

  for (std::size_t n = 0; n < app.dag.size(); ++n)
    EXPECT_EQ(f.view().instances_total(id, static_cast<dag::NodeId>(n)), 0);
  f.platform->finalize(100.0);
}

TEST(Platform, FiniteKeepaliveReapsAfterIdlePeriod) {
  Fixture f;
  FunctionPlan plan = warm_plan();
  plan.keepalive = 10.0;
  const auto id =
      f.platform->deploy(apps::make_voice_assistant(), std::make_shared<FixedPolicy>(plan));
  f.platform->submit_request(id, 1.0);
  f.engine.run_until(12.0);
  // Still warm shortly after completion...
  int total_at_12 = 0;
  for (std::size_t n = 0; n < 4; ++n)
    total_at_12 += f.view().instances_total(id, static_cast<dag::NodeId>(n));
  EXPECT_GT(total_at_12, 0);
  f.engine.run_until(60.0);
  for (std::size_t n = 0; n < 4; ++n)
    EXPECT_EQ(f.view().instances_total(id, static_cast<dag::NodeId>(n)), 0);
  f.platform->finalize(60.0);
}

TEST(Platform, PrewarmAvoidsColdStartOnCriticalPath) {
  Fixture f;
  const auto app = apps::make_voice_assistant();
  FunctionPlan plan = warm_plan();
  plan.keepalive = 0.0;
  plan.prewarm_grace = 10.0;
  const auto id = f.platform->deploy(app, std::make_shared<FixedPolicy>(plan));

  // Pre-warm every function early enough to be ready at t=30; the grace
  // keeps the warmed (never-used) instances alive until then.
  for (std::size_t n = 0; n < app.dag.size(); ++n)
    f.view().prewarm_at(id, static_cast<dag::NodeId>(n), 25.0);
  f.platform->submit_request(id, 30.0);
  f.engine.run_until(100.0);
  f.platform->finalize(100.0);

  const auto& m = f.platform->metrics(id);
  ASSERT_EQ(m.completed.size(), 1u);
  // All inits overlapped the idle pre-warm period: E2E ~ sum of inference.
  std::vector<double> w(app.dag.size());
  for (std::size_t n = 0; n < app.dag.size(); ++n)
    w[n] = app.truth[n].inference_time({perf::Backend::Cpu, 4, 0}, 1);
  EXPECT_NEAR(m.completed[0].e2e(), app.dag.critical_path_weight(w),
              0.4 * app.dag.critical_path_weight(w));
}

TEST(Platform, PrewarmSkipsWhenInstanceAlreadyWarm) {
  Fixture f;
  const auto id = f.platform->deploy(apps::make_voice_assistant(),
                                     std::make_shared<FixedPolicy>(warm_plan()));
  f.platform->submit_request(id, 1.0);
  f.engine.run_until(50.0);
  const auto& m0 = f.platform->metrics(id);
  const long inits_before = m0.total_initializations();
  f.view().prewarm_at(id, 0, 55.0);
  f.engine.run_until(80.0);
  EXPECT_EQ(f.platform->metrics(id).total_initializations(), inits_before);
  f.platform->finalize(80.0);
}

TEST(Platform, BatchingGroupsQueuedInvocations) {
  Fixture f;
  const auto app = apps::make_voice_assistant();
  FunctionPlan plan = warm_plan();
  plan.max_batch = 8;
  const auto id = f.platform->deploy(app, std::make_shared<FixedPolicy>(plan));
  // Six requests land at nearly the same instant.
  for (int i = 0; i < 6; ++i) f.platform->submit_request(id, 1.0 + 0.001 * i);
  f.engine.run_until(300.0);
  f.platform->finalize(300.0);

  const auto& m = f.platform->metrics(id);
  ASSERT_EQ(m.completed.size(), 6u);
  // Downstream stages see the batch arrive together: fewer inference calls
  // than invocations.
  const auto db = app.dag.find("DB");
  EXPECT_EQ(m.per_function[db].invocations, 6);
  EXPECT_LT(m.per_function[db].batches, 6);
}

TEST(Platform, MinInstancesFloorSpawnsImmediately) {
  Fixture f;
  const auto app = apps::make_voice_assistant();
  FunctionPlan plan = warm_plan();
  plan.min_instances = 3;
  const auto id = f.platform->deploy(app, std::make_shared<FixedPolicy>(plan));
  f.engine.run_until(20.0);
  for (std::size_t n = 0; n < app.dag.size(); ++n)
    EXPECT_EQ(f.view().instances_total(id, static_cast<dag::NodeId>(n)), 3);
  f.platform->finalize(20.0);
}

TEST(Platform, BillingMatchesLifetimeTimesUnitPrice) {
  Fixture f;
  const auto app = apps::make_voice_assistant();
  FunctionPlan plan = warm_plan();
  plan.min_instances = 1;
  const auto id = f.platform->deploy(app, std::make_shared<FixedPolicy>(plan));
  f.engine.run_until(100.0);
  f.platform->finalize(100.0);

  const perf::Pricing pricing;
  const double per_inst = 100.0 * pricing.per_second({perf::Backend::Cpu, 4, 0});
  const auto& m = f.platform->metrics(id);
  // 4 functions x 1 instance alive from t=0 to t=100.
  EXPECT_NEAR(m.total_cost(), 4.0 * per_inst, 0.05 * 4.0 * per_inst);
}

TEST(Platform, WindowSamplesRecordArrivals) {
  Fixture f;
  const auto id = f.platform->deploy(apps::make_voice_assistant(),
                                     std::make_shared<FixedPolicy>(warm_plan()));
  f.platform->submit_request(id, 0.5);
  f.platform->submit_request(id, 0.6);
  f.platform->submit_request(id, 2.5);
  f.engine.run_until(5.0);

  const auto& windows = f.platform->metrics(id).windows;
  ASSERT_GE(windows.size(), 3u);
  EXPECT_EQ(windows[0].arrivals, 2);
  EXPECT_EQ(windows[1].arrivals, 0);
  EXPECT_EQ(windows[2].arrivals, 1);
  f.platform->finalize(5.0);
}

TEST(Platform, InFlightTracksUnfinishedRequests) {
  Fixture f;
  const auto id = f.platform->deploy(apps::make_voice_assistant(),
                                     std::make_shared<FixedPolicy>(warm_plan()));
  f.platform->submit_request(id, 1.0);
  f.engine.run_until(1.5);  // mid-execution
  EXPECT_EQ(f.platform->ledger().in_flight(id), 1);
  f.engine.run_until(100.0);
  EXPECT_EQ(f.platform->ledger().in_flight(id), 0);
  f.platform->finalize(100.0);
}

TEST(Platform, ConfigChangeReapsStaleInstancesWhenIdle) {
  Fixture f;
  const auto app = apps::make_voice_assistant();
  const auto id = f.platform->deploy(app, std::make_shared<FixedPolicy>(warm_plan()));
  f.platform->submit_request(id, 1.0);
  f.engine.run_until(50.0);

  FunctionPlan gpu_plan;
  gpu_plan.config = {perf::Backend::Gpu, 0, 20};
  gpu_plan.keepalive = FunctionPlan::forever();
  f.view().set_plan(id, 0, gpu_plan);
  f.platform->submit_request(id, 60.0);
  f.engine.run_until(200.0);

  // Node 0's old CPU instance was replaced by a GPU one.
  EXPECT_EQ(f.view().instances_total(id, 0), 1);
  f.platform->finalize(200.0);
  const auto& m = f.platform->metrics(id);
  EXPECT_GT(m.per_function[0].billed_gpu_seconds, 0.0);
}

TEST(Platform, PrewarmNotCancelledByDyingInstance) {
  // Regression: an instance from the previous request that will die before
  // the pre-warmed one would even be ready must NOT cancel the pre-warm.
  Fixture f;
  const auto app = apps::make_voice_assistant();
  FunctionPlan plan = warm_plan();
  plan.keepalive = 2.0;        // dies quickly
  plan.prewarm_grace = 10.0;
  const auto id = f.platform->deploy(app, std::make_shared<FixedPolicy>(plan));

  f.platform->submit_request(id, 1.0);  // cold chain, instances die by ~t=14
  // Pre-warm scheduled while the old instances are still around but doomed.
  for (std::size_t n = 0; n < app.dag.size(); ++n)
    f.view().prewarm_at(id, static_cast<dag::NodeId>(n), 13.0);
  f.engine.run_until(20.0);
  // The pre-warm must have created fresh instances even though old ones
  // existed at t=13 (they were going to die before t=13+init).
  int warm = 0;
  for (std::size_t n = 0; n < app.dag.size(); ++n)
    warm += f.view().instances_total(id, static_cast<dag::NodeId>(n));
  EXPECT_EQ(warm, static_cast<int>(app.dag.size()));
  f.platform->finalize(20.0);
}

TEST(Platform, PrewarmSkippedWhenKeepaliveCoversIt) {
  Fixture f;
  const auto app = apps::make_voice_assistant();
  const auto id = f.platform->deploy(app, std::make_shared<FixedPolicy>(warm_plan()));
  f.platform->submit_request(id, 1.0);
  f.engine.run_until(30.0);
  const long inits = f.platform->metrics(id).total_initializations();
  // Keep-alive is infinite: a pre-warm for any time is redundant.
  for (std::size_t n = 0; n < app.dag.size(); ++n)
    f.view().prewarm_at(id, static_cast<dag::NodeId>(n), 40.0);
  f.engine.run_until(80.0);
  EXPECT_EQ(f.platform->metrics(id).total_initializations(), inits);
  f.platform->finalize(80.0);
}

TEST(Platform, AllocationFailureRetriesWhenCapacityFrees) {
  // A 1-machine cluster with 4 cores: the first request occupies it; a
  // second app's request must wait for capacity and then complete.
  sim::Engine engine;
  cluster::Cluster tiny(1, {4, 0});
  Rng rng(77);
  PlatformOptions options;
  options.inference_noise = 0.0;
  Platform platform(engine, tiny, perf::Pricing{}, rng, options);

  FunctionPlan plan;
  plan.config = {perf::Backend::Cpu, 4, 0};
  plan.keepalive = 0.0;  // release capacity promptly
  plan.prewarm_grace = 0.0;
  apps::App single;
  single.name = "single";
  single.sla = 30.0;
  single.dag.add_node("QA");
  single.truth.push_back(apps::model_by_name("QA"));

  const auto a = platform.deploy(single, std::make_shared<FixedPolicy>(plan));
  apps::App second = single;
  second.name = "single-2";
  const auto b = platform.deploy(second, std::make_shared<FixedPolicy>(plan));

  platform.submit_request(a, 1.0);
  platform.submit_request(b, 1.1);  // cluster full at this instant
  engine.run_until(60.0);
  platform.finalize(60.0);
  EXPECT_EQ(platform.metrics(a).completed.size(), 1u);
  EXPECT_EQ(platform.metrics(b).completed.size(), 1u);
  EXPECT_GT(platform.metrics(b).completed[0].e2e(),
            platform.metrics(a).completed[0].e2e());
}

TEST(Platform, MultipleAppsKeepSeparateBooks) {
  Fixture f;
  const auto id1 = f.platform->deploy(apps::make_voice_assistant(),
                                      std::make_shared<FixedPolicy>(warm_plan()));
  const auto id2 = f.platform->deploy(apps::make_image_query(),
                                      std::make_shared<FixedPolicy>(warm_plan()));
  f.platform->submit_request(id1, 1.0);
  f.platform->submit_request(id2, 1.0);
  f.platform->submit_request(id2, 2.0);
  f.engine.run_until(120.0);
  f.platform->finalize(120.0);
  EXPECT_EQ(f.platform->metrics(id1).submitted, 1);
  EXPECT_EQ(f.platform->metrics(id2).submitted, 2);
  EXPECT_EQ(f.platform->metrics(id1).completed.size(), 1u);
  EXPECT_EQ(f.platform->metrics(id2).completed.size(), 2u);
}

TEST(Platform, FinalizeIsIdempotent) {
  Fixture f;
  const auto id = f.platform->deploy(apps::make_voice_assistant(),
                                     std::make_shared<FixedPolicy>(warm_plan()));
  f.platform->submit_request(id, 1.0);
  f.engine.run_until(60.0);
  f.platform->finalize(60.0);
  const double cost = f.platform->metrics(id).total_cost();
  f.platform->finalize(60.0);
  EXPECT_DOUBLE_EQ(f.platform->metrics(id).total_cost(), cost);
}

TEST(Platform, PrewarmSkippedWhileInstanceStillInitializing) {
  // A pre-warm firing while a cold init is already in progress (instance in
  // the Init state, keep-alive forever) is redundant and must be skipped.
  Fixture f;
  const auto app = apps::make_voice_assistant();
  const auto id = f.platform->deploy(app, std::make_shared<FixedPolicy>(warm_plan()));
  f.platform->submit_request(id, 1.0);  // node 0 cold init starts at t=1
  f.view().prewarm_at(id, 0, 1.5);   // fires mid-init
  f.engine.run_until(100.0);
  const auto& m = f.platform->metrics(id);
  ASSERT_EQ(m.completed.size(), 1u);
  // Only the on-demand cold start initialised node 0; the pre-warm did not.
  EXPECT_EQ(m.per_function[0].initializations, 1);
  EXPECT_EQ(f.view().instances_total(id, 0), 1);
  f.platform->finalize(100.0);
}

TEST(Platform, FinalizeCancelsEveryQueuedPrewarm) {
  // After finalize no pre-warm may create (and bill) an instance, however
  // many were queued and however long the engine keeps running.
  Fixture f;
  FunctionPlan plan = warm_plan();
  plan.keepalive = 0.0;
  plan.prewarm_grace = 1.0;
  const auto id =
      f.platform->deploy(apps::make_voice_assistant(), std::make_shared<FixedPolicy>(plan));
  for (int i = 0; i < 100; ++i) f.view().prewarm_at(id, 0, 10.0 + 100.0 * i);
  f.platform->finalize(5.0);
  f.engine.run_until(20000.0);
  EXPECT_EQ(f.platform->metrics(id).total_initializations(), 0);
  EXPECT_EQ(f.platform->metrics(id).total_cost(), 0.0);
}

TEST(Platform, FinalizeCancelsExactlyThePendingPrewarms) {
  // A fired pre-warm drops its own handle, also when a sibling is due at the
  // same instant, so finalize cancels exactly the timers still pending and
  // no pre-warm creates an instance after it.
  Fixture f;
  FunctionPlan plan = warm_plan();
  plan.keepalive = 0.0;
  plan.prewarm_grace = 1.0;
  const auto id =
      f.platform->deploy(apps::make_voice_assistant(), std::make_shared<FixedPolicy>(plan));
  for (const SimTime at : {5.0, 10.0, 10.0, 50.0, 50.0, 70.0})
    f.view().prewarm_at(id, 0, at);
  f.engine.run_until(20.0);  // the three due by t=10 fired; their instances were reaped
  EXPECT_GE(f.platform->metrics(id).per_function[0].initializations, 2);
  ASSERT_EQ(f.view().instances_total(id, 0), 0);
  const long inits = f.platform->metrics(id).total_initializations();
  const std::uint64_t cancelled = f.engine.stats().cancelled;
  f.platform->finalize(20.0);
  EXPECT_EQ(f.engine.stats().cancelled - cancelled, 3u);
  f.engine.run_until(200.0);
  EXPECT_EQ(f.platform->metrics(id).total_initializations(), inits);
  EXPECT_EQ(f.view().instances_total(id, 0), 0);
}

/// One function (0.33 s inference, ~1.8 s init at 4 cores) on a platform
/// whose event stream the keep-alive tests read.
struct KeepaliveFixture {
  sim::Engine engine;
  cluster::Cluster cluster = cluster::Cluster::paper_testbed();
  Rng rng{123};
  obs::EventBus bus;
  std::unique_ptr<Platform> platform;
  AppId app = -1;

  explicit KeepaliveFixture(double keepalive) {
    PlatformOptions options;
    options.inference_noise = 0.0;
    options.bus = &bus;
    platform = std::make_unique<Platform>(engine, cluster, perf::Pricing{}, rng, options);
    FunctionPlan plan = warm_plan();
    plan.keepalive = keepalive;
    app = platform->deploy(apps::make_synthetic_pipeline(1, 2.0),
                           std::make_shared<FixedPolicy>(plan));
  }

  PlatformView view() { return PlatformView(*platform); }

  void set_keepalive(double keepalive) {
    FunctionPlan plan = view().plan(app, 0);
    plan.keepalive = keepalive;
    view().set_plan(app, 0, plan);
  }

  /// Sim times of every published event of `type`, in publish order.
  std::vector<double> times(obs::EventType type) const {
    std::vector<double> out;
    for (const obs::Event& e : bus.events())
      if (e.type == type) out.push_back(e.t);
    return out;
  }
};

TEST(Keepalive, ReusedInstanceIsReapedAtLastIdlePlusKeepalive) {
  // Reused three times inside its 15 s keep-alive, the one instance lives on
  // until exactly 15 s after its last batch ended. A reap timer armed at an
  // earlier idle transition must not reap it early.
  KeepaliveFixture f(15.0);
  for (const double at : {1.0, 10.0, 20.0, 30.0}) f.platform->submit_request(f.app, at);
  f.engine.run_until(200.0);

  EXPECT_EQ(f.platform->metrics(f.app).completed.size(), 4u);
  EXPECT_EQ(f.platform->metrics(f.app).total_initializations(), 1);
  const auto ends = f.times(obs::EventType::BatchEnd);
  const auto reaps = f.times(obs::EventType::InstanceTerminated);
  ASSERT_EQ(ends.size(), 4u);
  ASSERT_EQ(reaps.size(), 1u);
  EXPECT_EQ(reaps[0], ends.back() + 15.0);
  EXPECT_EQ(f.view().instances_total(f.app, 0), 0);
  f.platform->finalize(200.0);
}

TEST(Keepalive, WarmClaimCancelsNothing) {
  // The instance is idle with its reap timer pending when the request
  // arrives at 10.5; claiming it adds the batch-completion event and
  // touches no other timer.
  KeepaliveFixture f(15.0);
  f.platform->submit_request(f.app, 1.0);
  f.platform->submit_request(f.app, 10.5);
  f.engine.run_until(10.4);
  ASSERT_EQ(f.view().instances_idle(f.app, 0), 1);
  const sim::EngineStats before = f.engine.stats();
  f.engine.run_until(10.5);
  ASSERT_EQ(f.view().instances_busy(f.app, 0), 1);
  const sim::EngineStats after = f.engine.stats();
  EXPECT_EQ(after.fired, before.fired + 1);          // the arrival
  EXPECT_EQ(after.scheduled, before.scheduled + 1);  // its batch completion
  EXPECT_EQ(after.cancelled, before.cancelled);
  f.platform->finalize(10.5);
}

TEST(Keepalive, ShortenedKeepaliveReapsAtTheEarlierTime) {
  // Idle under a 60 s keep-alive, then reused under a 5 s one: the reap
  // comes 5 s after the second batch, not at the first timer's instant.
  KeepaliveFixture f(60.0);
  f.platform->submit_request(f.app, 1.0);
  f.engine.run_until(10.0);
  f.set_keepalive(5.0);
  f.platform->submit_request(f.app, 20.0);
  f.engine.run_until(200.0);

  const auto ends = f.times(obs::EventType::BatchEnd);
  const auto reaps = f.times(obs::EventType::InstanceTerminated);
  ASSERT_EQ(ends.size(), 2u);
  ASSERT_EQ(reaps.size(), 1u);
  EXPECT_EQ(reaps[0], ends.back() + 5.0);
  f.platform->finalize(200.0);
}

TEST(Keepalive, PlanSwitchedToForeverIsNeverReaped) {
  // The timer armed under the 15 s keep-alive is still pending when the
  // plan keeps instances forever and the instance is reused; it must drop
  // itself instead of reaping.
  KeepaliveFixture f(15.0);
  f.platform->submit_request(f.app, 1.0);
  f.engine.run_until(5.0);
  f.set_keepalive(FunctionPlan::forever());
  f.platform->submit_request(f.app, 8.0);
  f.engine.run_until(500.0);

  EXPECT_TRUE(f.times(obs::EventType::InstanceTerminated).empty());
  EXPECT_EQ(f.view().instances_total(f.app, 0), 1);
  f.platform->finalize(500.0);
}

TEST(Keepalive, EvictionCancelsThePendingReapTimer) {
  // Reused once, so its pending timer is the one armed at the first idle
  // transition; evicting the idle instance must cancel exactly that timer.
  KeepaliveFixture f(30.0);
  f.platform->submit_request(f.app, 1.0);
  f.platform->submit_request(f.app, 10.0);
  f.engine.run_until(20.0);
  ASSERT_EQ(f.view().instances_idle(f.app, 0), 1);
  int machine = -1;
  for (const obs::Event& e : f.bus.events())
    if (e.type == obs::EventType::InstanceCreated) machine = e.machine;
  ASSERT_GE(machine, 0);

  const std::size_t live = f.engine.pending();  // window tick + reap timer
  const std::uint64_t cancelled = f.engine.stats().cancelled;
  f.cluster.mark_down(machine);
  EXPECT_EQ(f.view().instances_total(f.app, 0), 0);
  EXPECT_EQ(f.engine.pending(), live - 1);
  EXPECT_EQ(f.engine.stats().cancelled, cancelled + 1);
  f.platform->finalize(20.0);
}

TEST(Keepalive, FinalizeCancelsThePendingReapTimer) {
  KeepaliveFixture f(30.0);
  f.platform->submit_request(f.app, 1.0);
  f.platform->submit_request(f.app, 10.0);
  f.engine.run_until(20.0);
  ASSERT_EQ(f.view().instances_idle(f.app, 0), 1);
  ASSERT_EQ(f.engine.pending(), 2u);  // window tick + reap timer
  f.platform->finalize(20.0);
  EXPECT_EQ(f.engine.pending(), 1u);  // the halted tick, which stops itself
  f.engine.run_until(500.0);
  EXPECT_EQ(f.engine.pending(), 0u);
}

TEST(PlatformView, SetPlanRejectsAnInvalidPlan) {
  KeepaliveFixture f(15.0);
  FunctionPlan plan = f.view().plan(f.app, 0);
  plan.max_batch = 0;
  EXPECT_THROW(f.view().set_plan(f.app, 0, plan), CheckError);
  plan.max_batch = 1;
  plan.min_instances = -1;
  EXPECT_THROW(f.view().set_plan(f.app, 0, plan), CheckError);
  // Neither plan was installed.
  EXPECT_EQ(f.view().plan(f.app, 0).max_batch, 1);
  EXPECT_EQ(f.view().plan(f.app, 0).min_instances, 0);
  f.platform->finalize(0.0);
}

TEST(PlatformView, CountsFollowOneFunctionThroughAColdStartAndABatch) {
  // One request at t = 1 to an app of one function with no instance yet.
  // Stepping the engine one instant at a time, the view's counts move from
  // nothing to a cold start with the invocation queued, to the batch
  // running on the new instance, to that instance idle after it.
  KeepaliveFixture f(FunctionPlan::forever());
  f.platform->submit_request(f.app, 1.0);
  using Counts = std::array<long, 5>;  // initializing, idle, busy, total, queued
  const auto counts = [&] {
    const PlatformView v = f.view();
    return Counts{v.instances_initializing(f.app, 0), v.instances_idle(f.app, 0),
                  v.instances_busy(f.app, 0), v.instances_total(f.app, 0),
                  static_cast<long>(v.queue_length(f.app, 0))};
  };
  std::vector<Counts> seen{counts()};
  while (f.engine.now() < 100.0) {
    f.engine.run_until(f.engine.next_time());
    if (counts() != seen.back()) seen.push_back(counts());
  }
  const std::vector<Counts> want = {
      {0, 0, 0, 0, 0}, {1, 0, 0, 1, 1}, {0, 0, 1, 1, 0}, {0, 1, 0, 1, 0}};
  EXPECT_EQ(seen, want);
  EXPECT_EQ(f.platform->metrics(f.app).completed.size(), 1u);
  f.platform->finalize(f.engine.now());
}

/// Records every on_window call as (app, window end).
class WindowRecorder : public Policy {
 public:
  explicit WindowRecorder(std::vector<std::pair<AppId, SimTime>>* log) : log_(log) {}
  std::string name() const override { return "window-recorder"; }
  void on_deploy(AppId, const apps::App&, PlatformView&) override {}
  void on_window(AppId app, const apps::App&, PlatformView&, const WindowStats& stats) override {
    log_->emplace_back(app, stats.window_end);
  }

 private:
  std::vector<std::pair<AppId, SimTime>>* log_;
};

TEST(WindowTick, AppsDeployedTogetherShareOneEventPerWindow) {
  Fixture f;
  std::vector<std::pair<AppId, SimTime>> log;
  for (int i = 0; i < 5; ++i)
    f.platform->deploy(apps::make_voice_assistant(), std::make_shared<WindowRecorder>(&log));
  EXPECT_EQ(f.engine.pending(), 1u);
  f.engine.run_until(10.0);
  EXPECT_EQ(f.engine.stats().fired, 10u);  // one per window, not one per app
  EXPECT_EQ(log.size(), 50u);
  f.platform->finalize(10.0);
}

TEST(WindowTick, AppsTickInDeployOrder) {
  Fixture f;
  std::vector<std::pair<AppId, SimTime>> log;
  std::vector<AppId> ids;
  for (int i = 0; i < 3; ++i)
    ids.push_back(f.platform->deploy(apps::make_voice_assistant(),
                                     std::make_shared<WindowRecorder>(&log)));
  f.engine.run_until(2.0);
  const std::vector<std::pair<AppId, SimTime>> want = {
      {ids[0], 1.0}, {ids[1], 1.0}, {ids[2], 1.0},
      {ids[0], 2.0}, {ids[1], 2.0}, {ids[2], 2.0}};
  EXPECT_EQ(log, want);
  f.platform->finalize(2.0);
}

TEST(WindowTick, AppDeployedLaterKeepsItsOwnGrid) {
  Fixture f;
  std::vector<std::pair<AppId, SimTime>> log;
  const AppId early =
      f.platform->deploy(apps::make_voice_assistant(), std::make_shared<WindowRecorder>(&log));
  f.engine.run_until(0.25);
  const AppId late =
      f.platform->deploy(apps::make_voice_assistant(), std::make_shared<WindowRecorder>(&log));
  EXPECT_EQ(f.engine.pending(), 2u);
  f.engine.run_until(2.5);
  const std::vector<std::pair<AppId, SimTime>> want = {
      {early, 1.0}, {late, 1.25}, {early, 2.0}, {late, 2.25}};
  EXPECT_EQ(log, want);
  EXPECT_EQ(f.platform->metrics(late).windows.size(), 2u);
  f.platform->finalize(2.5);
}

}  // namespace
}  // namespace smiless::serverless
