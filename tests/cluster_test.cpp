#include <gtest/gtest.h>

#include <vector>

#include "cluster/cluster.hpp"
#include "common/rng.hpp"

namespace smiless::cluster {
namespace {

using perf::Backend;
using perf::HwConfig;

TEST(Cluster, PaperTestbedCapacity) {
  const Cluster c = Cluster::paper_testbed();
  EXPECT_EQ(c.machine_count(), 8u);
  EXPECT_EQ(c.total_cpu_cores(), 8 * 104);
  EXPECT_EQ(c.total_gpu_pct(), 8 * 100);
}

TEST(Cluster, AllocateConsumesCapacity) {
  Cluster c(1, {8, 100});
  const auto a = c.allocate({Backend::Cpu, 4, 0});
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(c.free_cpu_cores(), 4);
  c.release(*a);
  EXPECT_EQ(c.free_cpu_cores(), 8);
}

TEST(Cluster, AllocationFailsWhenFull) {
  Cluster c(1, {4, 0});
  const auto a = c.allocate({Backend::Cpu, 4, 0});
  ASSERT_TRUE(a.has_value());
  EXPECT_FALSE(c.allocate({Backend::Cpu, 1, 0}).has_value());
}

TEST(Cluster, GpuSlicesAreIndependentOfCpu) {
  Cluster c(1, {4, 100});
  const auto g = c.allocate({Backend::Gpu, 0, 60});
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(c.free_gpu_pct(), 40);
  EXPECT_EQ(c.free_cpu_cores(), 4);  // untouched
  EXPECT_FALSE(c.allocate({Backend::Gpu, 0, 50}).has_value());
  EXPECT_TRUE(c.allocate({Backend::Gpu, 0, 40}).has_value());
}

TEST(Cluster, FirstFitSpillsToSecondMachine) {
  Cluster c(2, {4, 0});
  const auto a = c.allocate({Backend::Cpu, 3, 0});
  const auto b = c.allocate({Backend::Cpu, 3, 0});
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->machine, 0);
  EXPECT_EQ(b->machine, 1);
}

TEST(Cluster, FragmentationCanBlockLargeRequests) {
  Cluster c(2, {4, 0});
  ASSERT_TRUE(c.allocate({Backend::Cpu, 3, 0}));
  ASSERT_TRUE(c.allocate({Backend::Cpu, 3, 0}));
  // 2 free cores total but split 1+1: a 2-core container cannot fit.
  EXPECT_EQ(c.free_cpu_cores(), 2);
  EXPECT_FALSE(c.allocate({Backend::Cpu, 2, 0}).has_value());
}

TEST(Cluster, DoubleReleaseIsDetected) {
  Cluster c(1, {4, 100});
  const auto a = c.allocate({Backend::Cpu, 4, 0});
  ASSERT_TRUE(a);
  c.release(*a);
  EXPECT_THROW(c.release(*a), CheckError);
}

TEST(Placement, WorstFitStrandsWholeGpuCapacity) {
  // Spreading MPS slices across machines (worst fit) would strand the
  // whole-GPU capacity that first fit keeps by packing them onto one.
  Cluster c(2, {0, 100});
  ASSERT_TRUE(c.allocate({Backend::Gpu, 0, 30}));
  ASSERT_TRUE(c.allocate({Backend::Gpu, 0, 40}));  // packs onto m0
  EXPECT_TRUE(c.allocate({Backend::Gpu, 0, 100}).has_value());  // m1 intact
}

TEST(ClusterDown, DownMachineAcceptsNoAllocations) {
  Cluster c(2, {4, 0});
  c.mark_down(0);
  const auto a = c.allocate({Backend::Cpu, 4, 0});
  ASSERT_TRUE(a);
  EXPECT_EQ(a->machine, 1);  // first-fit skips the down machine
  EXPECT_FALSE(c.allocate({Backend::Cpu, 1, 0}).has_value());  // m1 full, m0 down
  c.mark_up(0);
  EXPECT_TRUE(c.allocate({Backend::Cpu, 1, 0}).has_value());
}

TEST(ClusterDown, FreeCapacityExcludesDownMachines) {
  Cluster c(2, {4, 100});
  EXPECT_EQ(c.free_cpu_cores(), 8);
  c.mark_down(1);
  EXPECT_EQ(c.free_cpu_cores(), 4);
  EXPECT_EQ(c.free_gpu_pct(), 100);
  EXPECT_EQ(c.machines_down(), 1);
  c.mark_up(1);
  EXPECT_EQ(c.free_cpu_cores(), 8);
  EXPECT_EQ(c.machines_down(), 0);
}

TEST(ClusterDown, ReleaseOnDownMachineRestoresLedger) {
  Cluster c(1, {4, 0});
  const auto a = c.allocate({Backend::Cpu, 3, 0});
  ASSERT_TRUE(a);
  c.mark_down(0);
  c.release(*a);  // grant returned while the machine is down
  EXPECT_EQ(c.free_cpu_cores(), 0);  // still excluded from the up-count
  c.mark_up(0);
  EXPECT_EQ(c.free_cpu_cores(), 4);  // full capacity usable again
}

TEST(ClusterDown, ListenersFireOnTransitionsOnly) {
  Cluster c(2, {4, 0});
  std::vector<std::pair<int, bool>> events;
  const int token = c.add_listener([&](int m, bool up) { events.push_back({m, up}); });
  c.mark_down(1);
  c.mark_down(1);  // idempotent: no second event
  c.mark_up(1);
  c.mark_up(1);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0], (std::pair<int, bool>{1, false}));
  EXPECT_EQ(events[1], (std::pair<int, bool>{1, true}));
  c.remove_listener(token);
  c.mark_down(0);
  EXPECT_EQ(events.size(), 2u);  // removed listener stays silent
}

// Property test: no randomized sequence of allocate / release / mark_down /
// mark_up may drive the free ledger negative, above the machine capacity, or
// leak capacity — and a full release with all machines up restores the
// initial state exactly.
TEST(ClusterProperty, RandomOpsPreserveCapacityInvariants) {
  const std::vector<HwConfig> asks = {
      {Backend::Cpu, 1, 0},  {Backend::Cpu, 4, 0},  {Backend::Cpu, 13, 0},
      {Backend::Gpu, 0, 10}, {Backend::Gpu, 0, 35}, {Backend::Gpu, 0, 100},
  };
  const int machines = 4;
  const MachineSpec spec{26, 100};
  Cluster c(machines, spec);
  Rng rng(0xC1A5);
  std::vector<Allocation> live;

  auto check_invariants = [&] {
    int up_cpu = 0, up_gpu = 0;
    for (int m = 0; m < machines; ++m) {
      const auto& f = c.free_of(m);
      ASSERT_GE(f.cpu_cores, 0) << "machine " << m;
      ASSERT_LE(f.cpu_cores, spec.cpu_cores) << "machine " << m;
      ASSERT_GE(f.gpu_pct, 0) << "machine " << m;
      ASSERT_LE(f.gpu_pct, spec.gpu_pct) << "machine " << m;
      if (c.machine_up(m)) {
        up_cpu += f.cpu_cores;
        up_gpu += f.gpu_pct;
      }
    }
    ASSERT_EQ(c.free_cpu_cores(), up_cpu);
    ASSERT_EQ(c.free_gpu_pct(), up_gpu);
    ASSERT_GE(c.free_cpu_cores(), 0);
    ASSERT_LE(c.free_cpu_cores(), c.total_cpu_cores());
    ASSERT_GE(c.free_gpu_pct(), 0);
    ASSERT_LE(c.free_gpu_pct(), c.total_gpu_pct());
  };

  for (int step = 0; step < 3000; ++step) {
    const int op = rng.uniform_int(0, 9);
    if (op < 5) {  // allocate
      const auto& ask = asks[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(asks.size()) - 1))];
      if (auto a = c.allocate(ask)) {
        ASSERT_TRUE(c.machine_up(a->machine));  // never lands on a down machine
        live.push_back(*a);
      }
    } else if (op < 8) {  // release a random outstanding grant
      if (!live.empty()) {
        const auto i = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(live.size()) - 1));
        c.release(live[i]);
        live[i] = live.back();
        live.pop_back();
      }
    } else if (op == 8) {
      c.mark_down(rng.uniform_int(0, machines - 1));
    } else {
      c.mark_up(rng.uniform_int(0, machines - 1));
    }
    check_invariants();
  }

  // Drain: return every grant, bring every machine up -> initial state.
  for (const auto& a : live) c.release(a);
  for (int m = 0; m < machines; ++m) c.mark_up(m);
  EXPECT_EQ(c.free_cpu_cores(), c.total_cpu_cores());
  EXPECT_EQ(c.free_gpu_pct(), c.total_gpu_pct());
  for (int m = 0; m < machines; ++m) {
    EXPECT_EQ(c.free_of(m).cpu_cores, spec.cpu_cores);
    EXPECT_EQ(c.free_of(m).gpu_pct, spec.gpu_pct);
  }
}

}  // namespace
}  // namespace smiless::cluster
