#include <gtest/gtest.h>

#include "apps/catalog.hpp"
#include "baselines/aquatope.hpp"
#include "baselines/experiment.hpp"
#include "baselines/grandslam.hpp"
#include "baselines/icebreaker.hpp"
#include "baselines/orion.hpp"
#include "core/smiless_policy.hpp"

namespace smiless::baselines {
namespace {

ProfileStore& store() {
  static Rng rng(101);
  // detlint:allow(global-state) fixed-seed fixture built once; tests only read it
  static ProfileStore s{profiler::OfflineProfiler{}, rng};
  return s;
}

workload::Trace small_trace(std::uint64_t seed, double duration = 120.0) {
  Rng rng(seed);
  workload::TraceOptions o;
  o.duration = duration;
  o.mean_rate = 0.5;
  return workload::generate_trace(o, rng);
}

ExperimentOptions fast_options() {
  ExperimentOptions o;
  o.drain_slack = 60.0;
  return o;
}

TEST(ProfileStore, ResolvesCatalogAndSyntheticNames) {
  EXPECT_EQ(store().fitted("TRS").name, "TRS");
  EXPECT_EQ(store().fitted("TRS#5").name, "TRS");
  EXPECT_THROW(store().fitted("NOPE"), CheckError);
}

TEST(ProfileStore, ForAppAlignsWithDag) {
  const auto app = apps::make_image_query();
  const auto profs = store().for_app(app);
  ASSERT_EQ(profs.size(), app.dag.size());
  for (std::size_t n = 0; n < profs.size(); ++n)
    EXPECT_EQ(profs[n].name, app.dag.name(static_cast<dag::NodeId>(n)));
}

TEST(Orion, PlansIgnoreArrivalRate) {
  const auto app = apps::make_voice_assistant();
  // Planning happens at deploy; exercised via a run below. Here check the
  // cost-model property through the optimizer it uses.
  core::StrategyOptimizer opt;
  opt.set_cost_model(core::CostModel::AlwaysPrewarm);
  const auto s1 = opt.optimize_chain(store().for_app(app), 0.3, app.sla);
  const auto s2 = opt.optimize_chain(store().for_app(app), 30.0, app.sla);
  EXPECT_NEAR(s1.cost, s2.cost, 1e-12);
}

TEST(Orion, ServesTraceAndPrewarmsDownstream) {
  const auto app = apps::make_voice_assistant();
  const auto trace = small_trace(1);
  const auto r = run_experiment(app, trace,
                                std::make_shared<OrionPolicy>(store().for_app(app)),
                                fast_options());
  EXPECT_EQ(r.completed, r.submitted);
  EXPECT_GT(r.cost, 0.0);
  // The fixed keep-alive absorbs steady traffic: at least one init per
  // function, but far fewer than one per invocation.
  EXPECT_GE(r.initializations, static_cast<long>(app.dag.size()));
  EXPECT_LT(r.initializations, r.invocations);
}

TEST(IceBreaker, EfficiencyScorePrefersGpuSlices) {
  // With ~10x speed-up at ~9x price, small GPU slices score above CPU tiers
  // for the catalog's heavy models — the behaviour behind Fig. 9a.
  const auto& fn = apps::model_by_name("TRS");
  const perf::Pricing pricing;
  const double gpu10 =
      IceBreakerPolicy::efficiency_score(fn, {perf::Backend::Gpu, 0, 10}, pricing);
  const double cpu16 =
      IceBreakerPolicy::efficiency_score(fn, {perf::Backend::Cpu, 16, 0}, pricing);
  EXPECT_GT(gpu10, cpu16);
}

TEST(IceBreaker, KeepsFunctionsWarmUnderSteadyLoad) {
  const auto app = apps::make_voice_assistant();
  const auto trace = small_trace(2);
  const auto r = run_experiment(app, trace,
                                std::make_shared<IceBreakerPolicy>(store().for_app(app)),
                                fast_options());
  EXPECT_EQ(r.completed, r.submitted);
  // Long keep-alive: few re-inits relative to invocations.
  EXPECT_LT(r.initializations, r.invocations / 2 + 8);
  // DAG-oblivious GPU preference shows up in the billed seconds.
  EXPECT_GT(r.gpu_pct_seconds, 0.0);
}

TEST(GrandSlam, SubSlasSumWithinSlaAlongPaths) {
  const auto app = apps::make_amber_alert();
  GrandSlamPolicy policy(store().for_app(app));
  // Exercise on_deploy through a short run, then inspect the sub-SLAs.
  const auto trace = small_trace(3, 30.0);
  run_experiment(app, trace, std::make_shared<GrandSlamPolicy>(store().for_app(app)),
                 fast_options());
  GrandSlamPolicy probe(store().for_app(app));
  sim::Engine engine;
  cluster::Cluster cl = cluster::Cluster::paper_testbed();
  Rng rng(9);
  serverless::Platform platform(engine, cl, perf::Pricing{}, rng);
  platform.deploy(app, std::shared_ptr<GrandSlamPolicy>(&probe, [](GrandSlamPolicy*) {}));
  const auto& subs = probe.sub_slas();
  ASSERT_EQ(subs.size(), app.dag.size());
  for (const auto& path : app.dag.all_paths()) {
    double sum = 0.0;
    for (auto n : path) sum += subs[n];
    EXPECT_LE(sum, app.sla + 1e-9);
  }
  platform.finalize(0.0);
}

TEST(GrandSlam, NoReinitializationAfterWarmup) {
  const auto app = apps::make_voice_assistant();
  const auto trace = small_trace(4);
  const auto r = run_experiment(app, trace,
                                std::make_shared<GrandSlamPolicy>(store().for_app(app)),
                                fast_options());
  EXPECT_EQ(r.completed, r.submitted);
  // Instances live forever: exactly one init per function.
  EXPECT_EQ(r.initializations, static_cast<long>(app.dag.size()));
}

TEST(Aquatope, ShortKeepaliveCausesFrequentReinits) {
  const auto app = apps::make_voice_assistant();
  const auto trace = small_trace(5);
  const auto r = run_experiment(app, trace,
                                std::make_shared<AquatopePolicy>(store().for_app(app)),
                                fast_options());
  EXPECT_EQ(r.completed, r.submitted);
  // A 5 s keep-alive with ~2 s mean gaps still expires across every longer
  // gap: re-initialisation stays pervasive, far beyond the one init per
  // function that keep-forever policies pay (Fig. 9b's extreme).
  EXPECT_GT(r.initializations, 4 * static_cast<long>(app.dag.size()));
}

TEST(MakePolicy, BuildsEveryKind) {
  const auto app = apps::make_voice_assistant();
  const auto trace = small_trace(6, 30.0);
  PolicySettings s;
  s.use_lstm = false;
  s.oracle_trace = &trace;
  for (PolicyKind kind :
       {PolicyKind::Smiless, PolicyKind::SmilessHomo, PolicyKind::SmilessNoDag,
        PolicyKind::Opt, PolicyKind::Orion, PolicyKind::IceBreaker, PolicyKind::GrandSlam,
        PolicyKind::Aquatope}) {
    const auto policy = make_policy(kind, app, store(), s);
    ASSERT_NE(policy, nullptr) << policy_kind_name(kind);
    EXPECT_EQ(policy->name(), policy_kind_name(kind));
  }
}

TEST(MakePolicy, OptRequiresOracle) {
  const auto app = apps::make_voice_assistant();
  PolicySettings s;
  EXPECT_THROW(make_policy(PolicyKind::Opt, app, store(), s), CheckError);
}

TEST(SmilessHomo, UsesOnlyCpuConfigs) {
  const auto app = apps::make_voice_assistant();
  const auto trace = small_trace(7);
  PolicySettings s;
  s.use_lstm = false;
  const auto r = run_experiment(app, trace,
                                make_policy(PolicyKind::SmilessHomo, app, store(), s),
                                fast_options());
  EXPECT_EQ(r.gpu_pct_seconds, 0.0);
  EXPECT_GT(r.cpu_core_seconds, 0.0);
}

TEST(RunExperiment, UndeliveredRequestsCountAsViolations) {
  // An empty-capacity cluster cannot serve anything; every request must be
  // counted as violated rather than silently dropped.
  const auto app = apps::make_voice_assistant();
  sim::Engine engine;
  cluster::Cluster tiny(1, {0, 0});
  Rng rng(10);
  serverless::Platform platform(engine, tiny, perf::Pricing{}, rng);
  PolicySettings s;
  s.use_lstm = false;
  const auto id = platform.deploy(app, make_policy(PolicyKind::GrandSlam, app, store(), s));
  platform.submit_request(id, 1.0);
  engine.run_until(30.0);
  platform.finalize(30.0);
  EXPECT_EQ(platform.metrics(id).completed.size(), 0u);
  EXPECT_EQ(platform.ledger().in_flight(id), 1);
}

}  // namespace
}  // namespace smiless::baselines
