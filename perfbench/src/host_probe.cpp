#include "host_probe.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <random>
#include <thread>
#include <vector>

#include "timed_policy.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kRingBytes = std::size_t{16} << 20;
constexpr std::size_t kLineWords = 64 / sizeof(std::uint64_t);  ///< one node per cache line
constexpr std::uint64_t kRingSeed = 1;
constexpr std::size_t kBurstLoads = std::size_t{1} << 17;  ///< about 20 ms at 150 ns per load

}  // namespace

void run_host_probe(std::ostream& out, double seconds) {
  const std::size_t nodes = kRingBytes / 64;
  std::vector<std::uint64_t> order(nodes);
  std::iota(order.begin(), order.end(), std::uint64_t{0});
  std::mt19937_64 gen(kRingSeed);
  std::shuffle(order.begin(), order.end(), gen);
  // next[word of node order[i]] = word of node order[i + 1]: one cycle
  // through every node, in a fixed random order.
  std::vector<std::uint64_t> next(nodes * kLineWords, 0);
  for (std::size_t i = 0; i < nodes; ++i)
    next[order[i] * kLineWords] = order[(i + 1) % nodes] * kLineWords;
  std::uint64_t at = 0;
  for (std::size_t i = 0; i < nodes; ++i) at = next[at];

  const std::uint64_t t_end = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  for (std::uint64_t t0 = now_ns(); t0 < t_end; t0 = now_ns()) {
    for (std::size_t i = 0; i < kBurstLoads; ++i) at = next[at];
    const std::uint64_t t1 = now_ns();
    out << t0 << ' ' << t1 << ' '
        << static_cast<double>(t1 - t0) / static_cast<double>(kBurstLoads) << std::endl;
    std::this_thread::sleep_for(std::chrono::nanoseconds(t1 - t0));
  }
  volatile std::uint64_t end = at;  // keeps the chase
  (void)end;
}

}  // namespace perfbench
