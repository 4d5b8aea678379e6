#include "cluster/cluster.hpp"

namespace smiless::cluster {

Cluster::Cluster(std::size_t machines, MachineSpec spec) : spec_(spec) {
  SMILESS_CHECK(machines >= 1);
  SMILESS_CHECK(spec.cpu_cores >= 0 && spec.gpu_pct >= 0);
  free_.assign(machines, spec);
  down_.assign(machines, 0);
  total_cpu_ = spec.cpu_cores * static_cast<int>(machines);
  total_gpu_ = spec.gpu_pct * static_cast<int>(machines);
}

std::optional<Allocation> Cluster::allocate(const perf::HwConfig& config) {
  const bool cpu = config.backend == perf::Backend::Cpu;
  const int need = cpu ? config.cpu_cores : config.gpu_pct;

  for (std::size_t m = 0; m < free_.size(); ++m) {
    if (down_[m]) continue;
    int& avail = cpu ? free_[m].cpu_cores : free_[m].gpu_pct;
    if (avail < need) continue;
    avail -= need;
    return Allocation{static_cast<int>(m), config};
  }
  return std::nullopt;
}

void Cluster::release(const Allocation& a) {
  SMILESS_CHECK(a.machine >= 0 && static_cast<std::size_t>(a.machine) < free_.size());
  auto& m = free_[a.machine];
  if (a.config.backend == perf::Backend::Cpu) {
    m.cpu_cores += a.config.cpu_cores;
    SMILESS_CHECK_MSG(m.cpu_cores <= spec_.cpu_cores, "double release of CPU cores");
  } else {
    m.gpu_pct += a.config.gpu_pct;
    SMILESS_CHECK_MSG(m.gpu_pct <= spec_.gpu_pct, "double release of GPU slice");
  }
}

void Cluster::mark_down(int machine) {
  SMILESS_CHECK(machine >= 0 && static_cast<std::size_t>(machine) < free_.size());
  if (down_[machine]) return;
  down_[machine] = 1;
  // Copy: a listener may add/remove listeners while being notified.
  const auto listeners = listeners_;
  for (const auto& [token, fn] : listeners) fn(machine, false);
}

void Cluster::mark_up(int machine) {
  SMILESS_CHECK(machine >= 0 && static_cast<std::size_t>(machine) < free_.size());
  if (!down_[machine]) return;
  down_[machine] = 0;
  const auto listeners = listeners_;
  for (const auto& [token, fn] : listeners) fn(machine, true);
}

bool Cluster::machine_up(int machine) const {
  SMILESS_CHECK(machine >= 0 && static_cast<std::size_t>(machine) < free_.size());
  return !down_[machine];
}

int Cluster::machines_down() const {
  int n = 0;
  for (char d : down_) n += d ? 1 : 0;
  return n;
}

int Cluster::add_listener(MachineListener fn) {
  SMILESS_CHECK(fn != nullptr);
  const int token = next_listener_token_++;
  listeners_.emplace_back(token, std::move(fn));
  return token;
}

void Cluster::remove_listener(int token) {
  for (std::size_t i = 0; i < listeners_.size(); ++i) {
    if (listeners_[i].first == token) {
      listeners_.erase(listeners_.begin() + static_cast<long>(i));
      return;
    }
  }
}

int Cluster::free_cpu_cores() const {
  int n = 0;
  for (std::size_t m = 0; m < free_.size(); ++m)
    if (!down_[m]) n += free_[m].cpu_cores;
  return n;
}

int Cluster::free_gpu_pct() const {
  int n = 0;
  for (std::size_t m = 0; m < free_.size(); ++m)
    if (!down_[m]) n += free_[m].gpu_pct;
  return n;
}

const MachineSpec& Cluster::free_of(int machine) const {
  SMILESS_CHECK(machine >= 0 && static_cast<std::size_t>(machine) < free_.size());
  return free_[machine];
}

}  // namespace smiless::cluster
