// Memory gate for the artifact writers, independent of the machine: this
// executable replaces the global allocation functions to count the bytes
// live on the heap, so it is a test binary of its own. A writer that builds
// the whole Perfetto document holds about four times the trace file while
// it writes; exp::write_artifacts streams every JSON artifact a record or a
// cell row at a time, so the heap may rise by only a fraction of the file.
#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <string>

#include "exp/artifacts.hpp"
#include "exp/config.hpp"
#include "exp/runner.hpp"

namespace {

std::atomic<long long> g_live{0};  ///< bytes the allocation functions handed out, not freed
std::atomic<long long> g_peak{0};  ///< the most g_live has been since it was last reset

void add_live(long long bytes) {
  const long long live = g_live.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  long long peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
}

void* allocate(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  add_live(static_cast<long long>(malloc_usable_size(p)));
  return p;
}

void release(void* p) {
  if (p == nullptr) return;
  add_live(-static_cast<long long>(malloc_usable_size(p)));
  std::free(p);
}

}  // namespace

// libstdc++'s nothrow forms call these. Its aligned forms allocate and free
// on their own and go uncounted; the simulator allocates nothing
// over-aligned.
void* operator new(std::size_t n) { return allocate(n); }
void* operator new[](std::size_t n) { return allocate(n); }
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }

using namespace smiless;

TEST(ArtifactMemory, WritersHoldFarLessThanTheTrace) {
  // Six LSTM-free cells (three apps, two seeds) over 20-minute preset
  // traces, every collector on. The largest thing a streamed writer holds
  // is one cell's series row, about 1.8 MB here (a quarter of this trace);
  // the trace writer holds only its track tables and flow spans.
  exp::ExperimentGrid grid;
  grid.base.policy = "smiless";
  grid.base.use_lstm = false;
  grid.base.trace.duration = 1200.0;
  const std::string dir = testing::TempDir() + "/artifact_memory";
  std::filesystem::create_directories(dir);
  exp::ObservabilityOptions& obs = grid.base.obs;
  obs.trace_out = dir + "/trace.json";
  obs.metrics_out = dir + "/metrics.json";
  obs.audit_out = dir + "/audit.json";
  obs.series_out = dir + "/series.json";
  obs.windows_out = dir + "/windows.csv";
  grid.apps = {"wl1", "wl2", "wl3"};
  grid.seeds = {7, 8};
  exp::Runner runner({/*threads=*/1, /*policy_threads=*/1});
  const auto cells = runner.run(grid);
  ASSERT_EQ(cells.size(), 6u);

  const long long before = g_live.load();
  g_peak.store(before);
  exp::write_artifacts(cells, obs);
  const long long rise = g_peak.load() - before;
  const auto trace_bytes = static_cast<long long>(std::filesystem::file_size(obs.trace_out));

  RecordProperty("trace_bytes", std::to_string(trace_bytes));
  RecordProperty("heap_rise_bytes", std::to_string(rise));
  // Big enough that a whole document would dwarf the writers' fixed
  // buffers (a 64 KiB hand-off string and the file's own buffer).
  ASSERT_GT(trace_bytes, 4'000'000);
  EXPECT_LT(rise, trace_bytes / 2) << "write_artifacts raised the live heap by " << rise
                                   << " bytes for a " << trace_bytes << "-byte trace.json";
}
