// Unit tests for the scheduler's dispatch order (warm_first_pick in
// serverless/function_scheduler.hpp): a plan-matching idle instance first,
// else the first idle one, else none.
#include <gtest/gtest.h>

#include <vector>

#include "serverless/function_scheduler.hpp"
#include "serverless/plan.hpp"

using namespace smiless;
using namespace smiless::serverless;

namespace {

Instance make_instance(InstanceState st, perf::HwConfig config) {
  Instance inst;
  inst.st = st;
  inst.config = config;
  return inst;
}

constexpr perf::HwConfig kCpu1{perf::Backend::Cpu, 1, 0};
constexpr perf::HwConfig kCpu4{perf::Backend::Cpu, 4, 0};

TEST(WarmFirstPick, PrefersConfigMatchOverEarlierIdle) {
  FunctionPlan plan;
  plan.config = kCpu4;
  std::vector<Instance> pool = {make_instance(InstanceState::Busy, kCpu4),
                                make_instance(InstanceState::Idle, kCpu1),
                                make_instance(InstanceState::Idle, kCpu4)};
  const auto pick = warm_first_pick(pool, plan.config);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, 2u);  // the matching instance, not the first idle one
}

TEST(WarmFirstPick, FallsBackToFirstIdleMismatch) {
  FunctionPlan plan;
  plan.config = kCpu4;
  std::vector<Instance> pool = {make_instance(InstanceState::Init, kCpu4),
                                make_instance(InstanceState::Idle, kCpu1),
                                make_instance(InstanceState::Idle, kCpu1)};
  const auto pick = warm_first_pick(pool, plan.config);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, 1u);  // warm is warm — use the earliest idle instance
}

TEST(WarmFirstPick, NoIdleMeansNoPick) {
  FunctionPlan plan;
  std::vector<Instance> pool = {make_instance(InstanceState::Busy, kCpu1),
                                make_instance(InstanceState::Init, kCpu1)};
  EXPECT_FALSE(warm_first_pick(pool, plan.config).has_value());
  EXPECT_FALSE(warm_first_pick({}, plan.config).has_value());
}

}  // namespace
