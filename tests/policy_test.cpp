#include <gtest/gtest.h>

#include <memory>

#include "apps/catalog.hpp"
#include "baselines/experiment.hpp"
#include "cluster/cluster.hpp"
#include "core/smiless_policy.hpp"
#include "serverless/platform_view.hpp"
#include "sim/engine.hpp"

namespace smiless::core {
namespace {

baselines::ProfileStore& store() {
  static Rng rng(303);
  // detlint:allow(global-state) fixed-seed fixture built once; tests only read it
  static baselines::ProfileStore s{profiler::OfflineProfiler{}, rng};
  return s;
}

/// Harness owning one platform + one SMIless policy for one app.
struct Harness {
  sim::Engine engine;
  cluster::Cluster cluster = cluster::Cluster::paper_testbed();
  Rng rng{11};
  serverless::Platform platform;
  std::shared_ptr<SmilessPolicy> policy;
  serverless::AppId id = -1;
  apps::App app;

  explicit Harness(apps::App a, SmilessOptions options = make_default_options())
      : platform(engine, cluster, perf::Pricing{}, rng), app(std::move(a)) {
    policy = std::make_shared<SmilessPolicy>("SMIless", store().for_app(app), options);
    id = platform.deploy(app, policy);
  }

  serverless::PlatformView view() { return serverless::PlatformView(platform); }

  static SmilessOptions make_default_options() {
    SmilessOptions o;
    o.use_lstm = false;
    return o;
  }

  void replay(const workload::Trace& trace, double extra = 60.0) {
    for (SimTime t : trace.arrivals) platform.submit_request(id, t);
    const double end = static_cast<double>(trace.counts.size()) * trace.window + extra;
    engine.run_until(end);
    platform.finalize(end);
  }
};

TEST(SmilessPolicy, DeployInstallsPlanForEveryFunction) {
  Harness h(apps::make_voice_assistant());
  for (std::size_t n = 0; n < h.app.dag.size(); ++n) {
    const auto& plan = h.view().plan(h.id, static_cast<dag::NodeId>(n));
    EXPECT_GE(plan.max_batch, 1);
  }
  const auto& sol = h.policy->solution();
  EXPECT_TRUE(sol.feasible);
  EXPECT_LE(sol.e2e_latency, h.app.sla);
}

TEST(SmilessPolicy, OnePolicyInstancePerApp) {
  auto policy = std::make_shared<SmilessPolicy>(
      "SMIless", store().for_app(apps::make_voice_assistant()), Harness::make_default_options());
  sim::Engine engine;
  cluster::Cluster cl = cluster::Cluster::paper_testbed();
  Rng rng(12);
  serverless::Platform platform(engine, cl, perf::Pricing{}, rng);
  platform.deploy(apps::make_voice_assistant(), policy);
  EXPECT_THROW(platform.deploy(apps::make_voice_assistant(), policy), CheckError);
  platform.finalize(0.0);
}

TEST(SmilessPolicy, SparseArrivalsFlipToPrewarmMode) {
  Harness h(apps::make_voice_assistant());
  Rng trng(13);
  const auto trace = workload::generate_regular_trace(20.0, 0.05, 300.0, trng);
  h.replay(trace);
  // With near-periodic 20 s gaps and T+I ~ 3 s, pre-warm mode should win
  // after the predictor converges.
  int prewarm = 0;
  for (const auto& d : h.policy->solution().per_node)
    if (d.mode == ColdStartMode::Prewarm) ++prewarm;
  EXPECT_GT(prewarm, 0);
  EXPECT_GT(h.policy->predicted_interarrival(), 10.0);
}

TEST(SmilessPolicy, TightArrivalsStayKeepAlive) {
  Harness h(apps::make_voice_assistant());
  Rng trng(14);
  const auto trace = workload::generate_regular_trace(1.0, 0.05, 120.0, trng);
  h.replay(trace);
  for (const auto& d : h.policy->solution().per_node)
    EXPECT_EQ(d.mode, ColdStartMode::KeepAlive);
}

TEST(SmilessPolicy, BurstRaisesInstanceFloorsAndCooldownRestores) {
  Harness h(apps::make_voice_assistant());
  Rng trng(15);
  const auto trace = workload::generate_burst_window(0.5, 12.0, trng);
  for (SimTime t : trace.arrivals) h.platform.submit_request(h.id, t);

  // Mid-burst (t = 35 s): floors should be up.
  h.engine.run_until(35.0);
  int peak_floor = 0;
  for (std::size_t n = 0; n < h.app.dag.size(); ++n)
    peak_floor = std::max(peak_floor,
                          h.view().plan(h.id, static_cast<dag::NodeId>(n)).min_instances);
  EXPECT_GT(peak_floor, 1);

  // Long after the burst: base plans restored (floor back to zero).
  h.engine.run_until(200.0);
  for (std::size_t n = 0; n < h.app.dag.size(); ++n)
    EXPECT_EQ(h.view().plan(h.id, static_cast<dag::NodeId>(n)).min_instances, 0);
  h.platform.finalize(200.0);
}

TEST(SmilessPolicy, AutoscalerDisabledKeepsFloorsAtZero) {
  auto options = Harness::make_default_options();
  options.enable_autoscaler = false;
  Harness h(apps::make_voice_assistant(), options);
  Rng trng(16);
  const auto trace = workload::generate_burst_window(0.5, 12.0, trng);
  for (SimTime t : trace.arrivals) h.platform.submit_request(h.id, t);
  h.engine.run_until(35.0);
  for (std::size_t n = 0; n < h.app.dag.size(); ++n) {
    EXPECT_EQ(h.view().plan(h.id, static_cast<dag::NodeId>(n)).min_instances, 0);
    EXPECT_EQ(h.view().plan(h.id, static_cast<dag::NodeId>(n)).max_batch, 1);
  }
  h.platform.finalize(35.0);
}

TEST(SmilessPolicy, OracleServesFirstRequestWarm) {
  const auto app = apps::make_voice_assistant();
  Rng trng(17);
  const auto trace = workload::generate_regular_trace(15.0, 0.02, 120.0, trng);

  auto options = Harness::make_default_options();
  options.exhaustive = true;
  auto policy = std::make_shared<SmilessPolicy>("OPT", app.truth, options);
  policy->set_oracle_arrivals(trace.arrivals);

  sim::Engine engine;
  cluster::Cluster cl = cluster::Cluster::paper_testbed();
  Rng rng(18);
  serverless::PlatformOptions popt;
  popt.inference_noise = 0.0;
  serverless::Platform platform(engine, cl, perf::Pricing{}, rng, popt);
  const auto id = platform.deploy(app, policy);
  for (SimTime t : trace.arrivals) platform.submit_request(id, t);
  engine.run_until(180.0);
  platform.finalize(180.0);

  const auto& m = platform.metrics(id);
  ASSERT_FALSE(m.completed.empty());
  // With oracle arrivals even the *first* request finds warm instances.
  EXPECT_LE(m.completed.front().e2e(), app.sla);
  EXPECT_LT(m.sla_violation_ratio(app.sla), 0.10);
}

TEST(SmilessPolicy, HomoOptionNeverTouchesGpu) {
  auto options = Harness::make_default_options();
  options.optimizer.config_space = perf::cpu_only_config_space();
  Harness h(apps::make_image_query(), options);
  Rng trng(19);
  auto to = workload::preset_for_workload(h.app.name, 240.0);
  h.replay(workload::generate_trace(to, trng));
  EXPECT_EQ(h.platform.metrics(h.id).total_gpu_seconds(), 0.0);
}

TEST(SmilessPolicy, ReoptimizationRespectsDwell) {
  auto options = Harness::make_default_options();
  options.reopt_dwell = 1000000;  // effectively never re-optimize
  Harness h(apps::make_voice_assistant(), options);
  const double it_before = h.policy->predicted_interarrival();
  Rng trng(20);
  h.replay(workload::generate_regular_trace(10.0, 0.05, 120.0, trng));
  // Predictions move but the deployed solution still reflects the original
  // inter-arrival assumption (mode decisions unchanged from deploy time).
  EXPECT_NE(h.policy->predicted_interarrival(), it_before);
  for (const auto& d : h.policy->solution().per_node)
    EXPECT_EQ(d.mode, ColdStartMode::KeepAlive);  // the IT=2 s default's verdict
}

TEST(SmilessPolicy, SlaMarginTightensPlanning) {
  auto tight = Harness::make_default_options();
  tight.sla_margin = 0.5;
  auto loose = Harness::make_default_options();
  loose.sla_margin = 1.0;
  Harness ht(apps::make_voice_assistant(), tight);
  Harness hl(apps::make_voice_assistant(), loose);
  EXPECT_LE(ht.policy->solution().e2e_latency, 0.5 * ht.app.sla);
  EXPECT_LE(hl.policy->solution().e2e_latency, hl.app.sla);
  // Tighter planning can only cost more.
  EXPECT_GE(ht.policy->solution().cost_per_invocation,
            hl.policy->solution().cost_per_invocation - 1e-12);
}

TEST(SmilessPolicy, FastPathScalesWithinWindow) {
  Harness h(apps::make_voice_assistant());
  // Six requests land within 0.3 s, far faster than any window tick.
  for (int i = 0; i < 6; ++i) h.platform.submit_request(h.id, 1.0 + 0.05 * i);
  h.engine.run_until(1.5);  // before the t=2.0 window tick
  int floor = 0;
  for (std::size_t n = 0; n < h.app.dag.size(); ++n)
    floor = std::max(floor, h.view().plan(h.id, static_cast<dag::NodeId>(n)).min_instances);
  EXPECT_GT(floor, 1);  // scaled out without waiting for the window boundary
  h.engine.run_until(120.0);
  h.platform.finalize(120.0);
  EXPECT_EQ(h.platform.ledger().in_flight(h.id), 0);
}

TEST(SmilessPolicy, LstmPredictorsTrainAndServe) {
  // Exercise the full Online Predictor path: small train_after so the
  // classifier and the dual-input LSTM actually train inside the run.
  auto options = Harness::make_default_options();
  options.use_lstm = true;
  options.train_after = 60;
  options.count_lstm.epochs = 3;
  options.count_lstm.hidden = 8;
  options.count_lstm.seq_len = 8;
  options.it_lstm = options.count_lstm;
  Harness h(apps::make_voice_assistant(), options);
  Rng trng(21);
  workload::TraceOptions o;
  o.duration = 180.0;
  o.mean_rate = 0.8;
  const auto trace = workload::generate_trace(o, trng);
  h.replay(trace);
  EXPECT_EQ(h.platform.ledger().in_flight(h.id), 0);
  EXPECT_GT(h.policy->predicted_interarrival(), 0.0);
  EXPECT_LT(h.platform.metrics(h.id).sla_violation_ratio(h.app.sla), 0.25);
}

TEST(SmilessPolicy, SingleInputItPredictorVariant) {
  // SMIless-S: the single-LSTM inter-arrival configuration of §VII-C2.
  auto options = Harness::make_default_options();
  options.use_lstm = true;
  options.dual_input_it = false;
  options.train_after = 60;
  options.count_lstm.epochs = 2;
  options.count_lstm.hidden = 8;
  options.count_lstm.seq_len = 8;
  options.it_lstm = options.count_lstm;
  Harness h(apps::make_voice_assistant(), options);
  Rng trng(22);
  workload::TraceOptions o;
  o.duration = 150.0;
  o.mean_rate = 0.8;
  h.replay(workload::generate_trace(o, trng));
  EXPECT_EQ(h.platform.ledger().in_flight(h.id), 0);
}

TEST(SmilessPolicy, PeriodicRetrainingRefreshesPredictors) {
  auto options = Harness::make_default_options();
  options.use_lstm = true;
  options.train_after = 50;
  options.retrain_every = 50;  // refit twice within the run
  options.count_lstm.epochs = 2;
  options.count_lstm.hidden = 6;
  options.count_lstm.seq_len = 6;
  options.it_lstm = options.count_lstm;
  Harness h(apps::make_voice_assistant(), options);
  Rng trng(23);
  workload::TraceOptions o;
  o.duration = 170.0;
  o.mean_rate = 0.8;
  h.replay(workload::generate_trace(o, trng));
  EXPECT_EQ(h.platform.ledger().in_flight(h.id), 0);
}

TEST(SmilessPolicy, SurvivesHeavyLatencyJitter) {
  // Failure injection: 25% multiplicative latency noise (interference,
  // throttling). SMIless must keep serving; violations rise but the run
  // stays live and every request completes.
  sim::Engine engine;
  cluster::Cluster cl = cluster::Cluster::paper_testbed();
  Rng rng(24);
  serverless::PlatformOptions popt;
  popt.inference_noise = 0.25;
  serverless::Platform platform(engine, cl, perf::Pricing{}, rng, popt);
  const auto app = apps::make_voice_assistant();
  auto policy = std::make_shared<SmilessPolicy>("SMIless", store().for_app(app),
                                                Harness::make_default_options());
  const auto id = platform.deploy(app, policy);
  Rng trng(25);
  workload::TraceOptions o;
  o.duration = 200.0;
  const auto trace = workload::generate_trace(o, trng);
  for (SimTime t : trace.arrivals) platform.submit_request(id, t);
  engine.run_until(280.0);
  platform.finalize(280.0);
  EXPECT_EQ(platform.ledger().in_flight(id), 0);
  EXPECT_LT(platform.metrics(id).sla_violation_ratio(app.sla), 0.5);
}

TEST(SmilessPolicy, SurvivesCapacityStarvedCluster) {
  // Failure injection: a cluster a fraction of the paper's size. Scale-out
  // allocations fail, the retry path engages, and every request still
  // completes eventually.
  sim::Engine engine;
  cluster::Cluster cl(1, {12, 100});
  Rng rng(26);
  serverless::Platform platform(engine, cl, perf::Pricing{}, rng);
  const auto app = apps::make_voice_assistant();
  auto policy = std::make_shared<SmilessPolicy>("SMIless", store().for_app(app),
                                                Harness::make_default_options());
  const auto id = platform.deploy(app, policy);
  Rng trng(27);
  const auto trace = workload::generate_burst_window(0.5, 8.0, trng);
  for (SimTime t : trace.arrivals) platform.submit_request(id, t);
  engine.run_until(300.0);
  platform.finalize(300.0);
  EXPECT_EQ(platform.ledger().in_flight(id), 0);
}

}  // namespace
}  // namespace smiless::core
