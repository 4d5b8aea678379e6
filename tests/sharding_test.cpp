// Lane-equivalence suite for the lane loop, the one cell runner (DESIGN.md
// §14).
//
// The contracts under test, all byte-level:
//  - the 4-app one-lane cell reproduces its pinned trajectory, recorded
//    when that cell still scheduled every arrival upfront;
//  - a single-app cell is invariant in the lane count K (the lone populated
//    lane inherits the whole cluster and the unmixed seed), across policies,
//    seeds, and with fault injection + observability on — also when
//    arrivals sit exactly on window boundaries;
//  - a multi-app sharded cell is invariant in lane_threads (parallelism is
//    wall-clock only);
//  - lanes run on the calling thread are profiled once;
//  - a lane that fails mid-run surfaces its error from run_colocated.
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "baselines/experiment.hpp"
#include "exp/config.hpp"
#include "exp/runner.hpp"
#include "fingerprint.hpp"
#include "obs/telemetry.hpp"
#include "prof/profiler.hpp"
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

/// fingerprint() of each app of the 4-app cell at lanes = 1, as the run
/// that scheduled every arrival upfront before the window loop produced it.
const char* const kUpfrontFingerprints[] = {
    // WL1-AMBER-Alert
    "Orion|0x1.fd2ad90d376fbp-6|0x1.5555555555555p-1|48|48|0|288|89|3|0|0|0|"
    "0x1.9b508fd2d4bb2p+11|0x0p+0;0x1.f14e22d18fd68p+1;0x1.f4c85479ee1bep+1;"
    "0x1.0c1378215cdacp+1;0x1.036ff9f1dcb9ap+1;0x1.f9aa2ebf3882p+0;0x1.003180fed039p+1;"
    "0x1.86cbf0d0539p+1;0x1.be43d82c595c4p+1;0x1.0e25f08b8b5p+1;0x1.190d996f41fe8p+1;"
    "0x1.e47a64165c08p+0;0x1.061c44bd4c938p+1;0x1.f548f6a33aebp+0;0x1.8eb219981864p+1;"
    "0x1.040a024a5d358p+1;0x1.f2533109aecap+0;0x1.3c1dc10a124p+1;0x1.05b82d444d19p+2;"
    "0x1.619cb37a2a71p+1;0x1.6efbb7507d59p+1;0x1.e0fc777b35d1p+1;0x1.f92424ab9528p+0;"
    "0x1.f23e969c506ep+0;0x1.0b33e51e6ed9p+1;0x1.fa17d3ab64c2p+0;0x1.f27eb69d329cp+0;"
    "0x1.ef1d8e7e51acp+0;0x1.0653a3c6019fp+1;0x1.38675222fbd3p+1;0x1.fd9d645310a2p+0;"
    "0x1.0bd0f5242b61p+1;0x1.f9e39db80864p+0;0x1.0b48a4d83e72p+2;0x1.006311704ed2p+1;"
    "0x1.c71c29140584p+0;0x1.fdb66878d56p+0;0x1.0877a3e3464ep+1;0x1.2d975e285452p+1;"
    "0x1.1d777d1166bp+1;0x1.07f32c01bcf4p+1;0x1.f699d37fc72cp+0;0x1.075169d93ff4p+1;"
    "0x1.ea7f2c6d3e9p+0;0x1.372c4d68c9cap+1;0x1.efcc904b3424p+0;0x1.041d6174c9f8p+1;"
    "0x1.97d2f71f7748p+1;0x1.070d1d779f7cp+1#2,12,0#0,12,0#0,12,0#1,15,0#0,15,0#0,15,0#"
    "1,15,0#0,13,0#0,7,0#0,6,0#1,11,0#0,11,0#1,11,0#0,11,0#0,11,0#1,16,0#1,13,0#0,12,0#"
    "0,11,0#2,13,0#0,13,0#2,15,0#1,16,0#0,16,0#0,16,0#0,14,0#1,15,0#0,12,0#0,9,0#0,9,0#"
    "1,10,0#2,14,0#0,12,0#0,12,0#0,12,0#0,12,0#0,6,0#0,1,0#0,0,0#1,6,0#0,6,0#0,6,0#0,6,0#"
    "1,7,0#2,11,0#0,11,0#0,11,0#0,11,0#1,16,0#1,16,0#1,11,0#1,10,0#1,10,0#0,10,0#0,6,0#"
    "0,6,0#1,11,0#0,10,0#2,11,0#1,12,0#0,12,0#0,12,0#1,16,0#0,13,0#1,11,0#0,10,0#0,10,0#"
    "0,10,0#1,12,0#0,7,0#0,6,0#0,6,0#0,6,0#0,6,0#1,11,0#0,11,0#0,10,0#1,10,0#1,11,0#2,10,0#"
    "1,12,0#1,13,0#1,13,0#3,15,0#0,16,0#1,16,0#2,16,0#0,14,0#1,11,0#0,8,0#0,7,0#0,7,0#"
    "0,6,0#0,1,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#"
    "0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#"
    "0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#"
    "0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#"
    "0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#"
    "0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#"
    "0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#"
    "0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#"
    "0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0",
    // WL2-Image-Query
    "GrandSLAm|0x1.08057619f0fb4p-2|0x1.1f7047dc11f7p-6|57|57|0|285|6|1|0|0|0|0x1.068p+13|"
    "0x1.482p+14;0x1.3a138eb83b20cp+1;0x1.9a184de69ce68p+0;0x1.8cc5c2a729b8p-2;"
    "0x1.b8147d29339ap-2;0x1.d3937ef07df6p-2;0x1.b71a50147ebep-2;0x1.94c846840058p-2;"
    "0x1.bea342e9f144p-2;0x1.b28a70a4c78cp-2;0x1.c970dc7d576p-2;0x1.98b5e6bb5d08p-1;"
    "0x1.98cecbd4b04cp-2;0x1.bbd6285d7d2cp-2;0x1.af54aa59ac54p-2;0x1.cc3f707d1558p-2;"
    "0x1.af19fa9ef978p-2;0x1.a15b3ec7fe18p-2;0x1.cd7866a018ep-2;0x1.c358b82be468p-2;"
    "0x1.b9908b12fedp-2;0x1.a7225ae0b37p-2;0x1.bba22f6dfa88p-2;0x1.bbee141ec6ap-2;"
    "0x1.a3ccf96a6e3p-2;0x1.a8d965dc864p-2;0x1.b86631f08a78p-2;0x1.b2efa3a71dc8p-2;"
    "0x1.aec2660756e8p-2;0x1.0c7c1ced579cp-1;0x1.c9a9b482cfdp-2;0x1.b01f1730445p-2;"
    "0x1.b4f12b57f6p-2;0x1.a454c6f5fd38p-2;0x1.11ed19f4a9bp-1;0x1.c488bee6f68p-2;"
    "0x1.b3156c27b358p-2;0x1.ae157f051be8p-2;0x1.bae3397184e8p-2;0x1.a3a5cda8f2bp-2;"
    "0x1.c5c92403c5fp-2;0x1.046a59a18998p-1;0x1.b7eaf7c9b1dp-2;0x1.ad4f8472ap-2;"
    "0x1.ac1412d9ddcp-2;0x1.c47265318bp-2;0x1.bc194904bbdp-2;0x1.3cc5c4512538p-1;"
    "0x1.c272c52989ep-1;0x1.7d627eb1748p-1;0x1.a3952afa12a8p-1;0x1.b18e38d736ap-2;"
    "0x1.dd458ed565dp-2;0x1.b8cb37416fbp-2;0x1.a186abbc907p-2;0x1.e17c41feap-2;"
    "0x1.1e25aa6c8f48p-1;0x1.a9343f18e7ep-2#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#1,4,1#1,4,1#"
    "0,4,1#0,4,1#0,4,1#2,4,1#0,4,1#0,4,1#0,4,1#2,4,1#0,4,1#4,4,1#0,4,1#1,4,1#0,4,1#1,4,1#"
    "2,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#1,4,1#0,4,1#1,4,1#"
    "1,4,1#1,4,1#1,4,1#0,4,1#0,4,1#2,4,1#1,4,1#0,4,1#3,4,1#2,4,1#2,4,1#0,4,1#1,4,1#0,4,1#"
    "2,4,1#2,4,1#0,4,1#0,4,1#1,4,1#0,4,1#0,4,1#0,4,1#0,4,1#1,4,1#0,4,1#0,4,1#1,4,1#0,4,1#"
    "1,4,1#1,4,1#0,4,1#2,4,1#1,4,1#0,4,1#0,4,1#0,4,1#0,4,1#1,4,1#1,4,1#0,4,1#1,4,1#3,4,1#"
    "1,4,1#0,4,1#1,4,1#0,4,1#1,4,1#0,4,1#0,4,1#1,4,1#1,4,1#0,4,1#3,4,1#0,4,1#1,4,1#0,4,1#"
    "0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#"
    "0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#"
    "0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#"
    "0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#"
    "0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#"
    "0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#"
    "0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#"
    "0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#"
    "0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1#0,4,1",
    // WL3-Voice-Assistant
    "Orion|0x1.61b08fc889044p-6|0x1.88c46231188c4p-3|73|73|0|292|60|1|0|0|0|"
    "0x1.1db78c80f5911p+11|0x0p+0;0x1.e8fcb32991825p+1;0x1.e3c9ebeab6608p+0;"
    "0x1.12b5b6911aac2p+1;0x1.bb7752d7c01a8p+0;0x1.b50f606401ad8p+0;0x1.d116741011b7p+0;"
    "0x1.d5b040d991818p+0;0x1.c634987a1319p+0;0x1.b0375016b31cp+0;0x1.ee0239922e49p+0;"
    "0x1.c5919cfae029p+0;0x1.162ea782ce4e8p+1;0x1.c5f79996e1d4p+0;0x1.cc798c84b0dp+0;"
    "0x1.c8adc6cc575ep+0;0x1.c79a6fad796p+0;0x1.db351ef5dcaep+0;0x1.c93ddf29d855p+0;"
    "0x1.ec1a271fec7cp+0;0x1.c2b77fe2a9e3p+0;0x1.d03674363bc1p+0;0x1.c335ae4d35f2p+0;"
    "0x1.beef98a6ee8ep+0;0x1.02708d2a4846p+1;0x1.0cf155a5895fp+1;0x1.2cab1ef50284p+1;"
    "0x1.39ab1cfa035ep+1;0x1.539353814b0fp+1;0x1.0a70f901ebbp+1;0x1.c386204084d2p+0;"
    "0x1.ce3f0c15ec5ap+0;0x1.e33aeab1d29cp+0;0x1.bb095f9b21f8p+0;0x1.cf2cfa35c89p+0;"
    "0x1.d51eeac7505cp+0;0x1.bf02bf955df6p+0;0x1.c519adea592cp+0;0x1.d0c9df18d388p+0;"
    "0x1.1d5c55299361p+1;0x1.d4f29c892a72p+0;0x1.c9796a4971b8p+0;0x1.caed36fcd5eep+0;"
    "0x1.d56d074a297p+0;0x1.bb1291fa34d8p+0;0x1.adf20b0241d8p+1;0x1.c824ed553d92p+0;"
    "0x1.c30dfd54032p+0;0x1.dc335b444aa4p+0;0x1.cf5d2b2b2ed4p+0;0x1.c8623dd8c784p+0;"
    "0x1.ed666b1a09ecp+0;0x1.c1ca87becec8p+0;0x1.03ab1465c6dp+1;0x1.ca24be74645p+0;"
    "0x1.cacb295c75a4p+0;0x1.8bef9d4a2626p+1;0x1.c8bd9cc3038p+0;0x1.c97cfcff88b4p+0;"
    "0x1.cc944b9fad0cp+0;0x1.e08344fa6338p+0;0x1.c88066856234p+0;0x1.cb3f2a552428p+0;"
    "0x1.024b0cee60cep+1;0x1.cf1d615f41ecp+0;0x1.bd21564fbp+0;0x1.d2df54af00bcp+0;"
    "0x1.bee78b0d33p+0;0x1.be22314f0054p+0;0x1.b3c99c921efp+0;0x1.aca298c3e158p+0;"
    "0x1.fbb3fde76214p+0;0x1.cd3f3c88302cp+0;0x1.cb133ec49378p+0#0,0,0#1,4,0#0,4,0#0,4,0#"
    "2,7,0#1,9,0#1,10,0#0,10,0#1,10,0#0,10,0#0,7,0#0,6,0#1,7,0#1,7,0#0,7,0#1,7,0#2,8,0#"
    "1,7,0#1,8,0#1,10,0#1,11,0#0,9,0#1,8,0#0,7,0#0,6,0#1,5,0#1,4,0#1,5,0#1,6,0#0,6,0#1,7,0#"
    "0,7,0#0,7,0#0,6,0#1,8,0#1,9,0#4,13,0#2,15,0#0,15,0#0,15,0#1,15,0#0,14,0#2,10,0#0,5,0#"
    "1,5,0#1,6,0#1,7,0#1,8,0#1,8,0#2,10,0#0,10,0#1,10,0#1,8,0#1,7,0#0,5,0#1,4,0#0,4,0#"
    "0,4,0#2,5,0#0,5,0#1,6,0#0,6,0#1,6,0#1,7,0#0,6,0#1,6,0#0,5,0#0,5,0#0,4,0#1,7,0#1,8,0#"
    "2,9,0#0,9,0#2,9,0#1,9,0#0,9,0#1,9,0#0,7,0#1,7,0#0,6,0#1,7,0#2,8,0#2,13,0#1,14,0#"
    "2,14,0#1,14,0#1,14,0#0,12,0#3,11,0#2,11,0#0,10,0#0,10,0#0,7,0#0,5,0#0,2,0#0,0,0#0,0,0#"
    "0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#"
    "0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#"
    "0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#"
    "0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#"
    "0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#"
    "0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#"
    "0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#"
    "0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#0,0,0#"
    "0,0,0",
    // IPA
    "GrandSLAm|0x1.85f06f6944674p-4|0x0p+0|62|62|0|248|4|0|0|0|0|0x1.3bp+13|0x0p+0;"
    "0x1.a47120b8dd768p-2;0x1.af7aa35ef362p-2;0x1.affa5b4f51bcp-2;0x1.aaf9de02a4afp-2;"
    "0x1.b7be176637aap-2;0x1.9e9e0eea73bp-2;0x1.a6ed76bfb828p-2;0x1.90090d086486p-2;"
    "0x1.a9f23cb3b23ap-2;0x1.a5d0f9bc1212p-2;0x1.acf63ff3d15p-2;0x1.8998bc87c868p-2;"
    "0x1.9aab99a3b222p-2;0x1.9a714dda88c6p-2;0x1.ad6b1b11e0bp-2;0x1.91d64e8a1f54p-2;"
    "0x1.0560ac0bbe48p-1;0x1.bb23bc072d9cp-2;0x1.0cca13fb9c76p-1;0x1.a3da7c7f0cfcp-2;"
    "0x1.b30f02a3f3fcp-2;0x1.9a174d22f55cp-2;0x1.b99911d70accp-2;0x1.999f78fe688p-2;"
    "0x1.9623c82781bcp-2;0x1.b66641251cdp-2;0x1.a8ff450555ep-2;0x1.be589afa28f8p-2;"
    "0x1.ab8241f89748p-2;0x1.94fada397df8p-2;0x1.b4e9b04d137p-2;0x1.a1126404de58p-2;"
    "0x1.b46a34a3073p-2;0x1.771b4c9ed9d8p-1;0x1.9d33e2fc8598p-2;0x1.b5682ed4927p-2;"
    "0x1.da2d39deeea8p-2;0x1.aa7cc041b4a8p-2;0x1.d2f8cf5dc94p-2;0x1.9fa2b77444d8p-2;"
    "0x1.8f72ea5a9b3p-2;0x1.a72c58936b7p-2;0x1.fa8c0085469p-2;0x1.a766212ecd28p-2;"
    "0x1.9058f12dca88p-2;0x1.a09c60bd96p-2;0x1.aeab8aa90c7p-2;0x1.b0831278efb8p-2;"
    "0x1.b92391cc2c5p-2;0x1.a749805e536p-2;0x1.a1c69f15e7p-2;0x1.a12238c201dp-2;"
    "0x1.a6732b00d92p-2;0x1.9c52213ef8dp-2;0x1.ac70da8b73fp-2;0x1.a23012f21p-2;"
    "0x1.a9901e074ffp-2;0x1.afd9f70da74p-2;0x1.b7f91d5f63cp-2;0x1.a5c5b6b20ep-2;"
    "0x1.b65f318295dp-2;0x1.a6cdc2cd635p-2#0,4,0#0,4,0#0,4,0#1,4,0#0,4,0#1,4,0#1,4,0#1,4,0#"
    "3,4,0#0,4,0#0,4,0#1,4,0#2,4,0#2,4,0#2,4,0#0,4,0#0,4,0#1,4,0#1,4,0#1,4,0#0,4,0#0,4,0#"
    "2,4,0#0,4,0#0,4,0#0,4,0#0,4,0#1,4,0#2,4,0#1,4,0#1,4,0#1,4,0#0,4,0#1,4,0#0,4,0#2,4,0#"
    "0,4,0#1,4,0#0,4,0#0,4,0#1,4,0#1,4,0#2,4,0#1,4,0#0,4,0#1,4,0#0,4,0#0,4,0#0,4,0#0,4,0#"
    "2,4,0#0,4,0#2,4,0#1,4,0#0,4,0#0,4,0#1,4,0#2,4,0#1,4,0#1,4,0#1,4,0#1,4,0#0,4,0#2,4,0#"
    "0,4,0#0,4,0#0,4,0#1,4,0#0,4,0#0,4,0#0,4,0#1,4,0#1,4,0#1,4,0#0,4,0#1,4,0#1,4,0#1,4,0#"
    "2,4,0#0,4,0#1,4,0#0,4,0#0,4,0#0,4,0#1,4,0#0,4,0#0,4,0#1,4,0#1,4,0#0,4,0#0,4,0#0,4,0#"
    "0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#"
    "0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#"
    "0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#"
    "0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#"
    "0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#"
    "0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#"
    "0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#"
    "0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#"
    "0,4,0#0,4,0#0,4,0#0,4,0#0,4,0#0,4,0",
};

/// The one-lane 4-app cell must reproduce, bit for bit, the trajectory the
/// upfront-scheduling runner produced for it before the lane loop replaced
/// that runner.
TEST(Sharding, SingleLaneReproducesMonolithicColocatedRun) {
  const auto& store = runner().profiles(2024);
  const Deployment dep(90.0);

  obs::Telemetry tel;
  const auto results =
      baselines::run_colocated(dep.colocated(store), sharded_options(&tel, 1, 0));

  ASSERT_EQ(results.size(), std::size(kUpfrontFingerprints));
  for (std::size_t i = 0; i < results.size(); ++i) {
    SCOPED_TRACE("app " + results[i].app);
    EXPECT_EQ(fingerprint(results[i]), kUpfrontFingerprints[i]);
  }
  EXPECT_EQ(tel.bus().size(), 5891u);
}

/// Arrivals on whole seconds sit exactly on window boundaries. Such an
/// arrival counts in the window that starts at it, as Trace::counts does,
/// at every lane count.
TEST(Sharding, BoundaryArrivalsCountInTheWindowTheyStart) {
  const std::string path = testing::TempDir() + "/sharding_whole_seconds.csv";
  {
    std::ofstream csv(path);
    csv << "arrival_s\n";
    for (int t = 0; t < 60; ++t)
      for (int k = 0; k < t % 3 + (t % 7 == 0 ? 2 : 0); ++k) csv << t << "\n";
  }
  const auto& store = runner().profiles(2024);
  const auto make = [&](int lanes) {
    exp::ExperimentConfig c;
    c.app = "wl1";
    c.policy = "orion";
    c.use_lstm = false;
    c.seed = 7;
    c.lanes = lanes;
    c.trace.kind = "csv";
    c.trace.file = path;
    c.obs.metrics_out = "unused.json";
    c.obs.windows_out = "unused.csv";
    return c;
  };
  const exp::CellResult one = exp::Runner::run_cell(make(1), store, runner().policy_pool());
  const exp::CellResult four =
      exp::Runner::run_cell(make(4), store, runner().policy_pool(), /*lane_threads=*/2);
  expect_same_result(one.result, four.result);
  ASSERT_NE(one.telemetry, nullptr);
  ASSERT_NE(four.telemetry, nullptr);
  EXPECT_EQ(one.telemetry->metrics_json().dump(), four.telemetry->metrics_json().dump());

  const workload::Trace trace = exp::build_trace(make(1), exp::resolve_app(make(1)));
  ASSERT_GE(one.result.windows.size(), trace.counts.size());
  for (std::size_t i = 0; i < trace.counts.size(); ++i) {
    SCOPED_TRACE("window " + std::to_string(i));
    EXPECT_EQ(one.result.windows[i].arrivals, trace.counts[i]);
  }
}

/// A genuinely partitioned cell (4 apps over 4 lanes) must not care how many
/// threads step the lanes.
TEST(Sharding, MultiAppShardIsInvariantInLaneThreads) {
  const auto& store = runner().profiles(2024);
  const Deployment dep(90.0);

  obs::Telemetry serial_tel;
  const auto serial =
      baselines::run_colocated(dep.colocated(store), sharded_options(&serial_tel, 4, 1));

  for (const int lane_threads : {2, 4}) {
    obs::Telemetry tel;
    const auto parallel = baselines::run_colocated(dep.colocated(store),
                                                   sharded_options(&tel, 4, lane_threads));
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

std::uint64_t exclusive_sum(const prof::Profiler& p) {
  std::uint64_t sum = 0;
  for (const prof::SiteAgg& a : p.sites()) sum += a.exclusive_ns;
  return sum;
}

/// Lanes run on the calling thread are charged to the profiler once: the
/// sites' exclusive times still sum exactly to the root scope, and each
/// populated lane keeps its own breakdown entry.
TEST(Sharding, SerialLanesAreProfiledOnce) {
  const auto& store = runner().profiles(2024);
  {
    SCOPED_TRACE("single app, lanes=4");
    const exp::CellResult c = exp::Runner::run_cell(
        cell("orion", 42, 4), store, runner().policy_pool(), /*lane_threads=*/1,
        /*force_profile=*/true);
    ASSERT_NE(c.profile, nullptr);
    ASSERT_GT(c.profile->root_ns(), 0u);
    EXPECT_EQ(exclusive_sum(*c.profile), c.profile->root_ns());
    EXPECT_EQ(c.profile->lanes().size(), 1u);
  }
  {
    SCOPED_TRACE("4 apps, lanes=4");
    const Deployment dep(90.0);
    std::set<int> populated;
    for (std::size_t g = 0; g < dep.apps.size(); ++g)
      populated.insert(serverless::ShardedPlatform::lane_for(g, 4));
    prof::Profiler profile;
    auto options = sharded_options(nullptr, 4, 1);
    options.profiler = &profile;
    {
      prof::ScopeTimer root(&profile, prof::Site::CellRun);
      baselines::run_colocated(dep.colocated(store), options);
    }
    ASSERT_GT(profile.root_ns(), 0u);
    EXPECT_EQ(exclusive_sum(profile), profile.root_ns());
    EXPECT_EQ(profile.lanes().size(), populated.size());
  }
}

/// A lane whose policy throws a few windows in must end run_colocated with
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
      baselines::run_colocated(std::move(apps), sharded_options(nullptr, 4, lane_threads));
      FAIL() << "run_colocated must rethrow the lane's error";
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
