#pragma once

#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "perfmodel/hardware.hpp"

namespace smiless::cluster {

/// Capacity of one physical machine. Mirrors the paper's testbed: two
/// 52-core Xeons (104 cores) and one GPU (100 MPS percent units).
struct MachineSpec {
  int cpu_cores = 104;
  int gpu_pct = 100;
};

/// Resource grant for one container instance.
struct Allocation {
  int machine = -1;
  perf::HwConfig config;
};

/// A fixed fleet of machines granting container resources first-fit: each
/// grant goes to the lowest-numbered up machine with room, which packs
/// small asks together and keeps whole machines free for big GPU asks.
/// Tracks free capacity; billing is handled by the serverless layer
/// (capacity and money are orthogonal concerns).
///
/// Machines can be taken down (crash injection, maintenance) with
/// mark_down(): a down machine accepts no new allocations and its free
/// capacity is excluded from free_cpu_cores()/free_gpu_pct(). Existing
/// grants on it stay on the books until their owner release()s them —
/// registered machine listeners (the serverless layer) are expected to
/// evict and release on the down transition.
class Cluster {
 public:
  /// Observer of machine up/down transitions; `up` is the new state.
  using MachineListener = std::function<void(int machine, bool up)>;

  Cluster(std::size_t machines, MachineSpec spec);

  /// Default fleet from the paper: 8 machines.
  static Cluster paper_testbed() { return Cluster(8, MachineSpec{}); }

  /// Place a container of the given configuration on the first up machine
  /// with room; std::nullopt when none has.
  std::optional<Allocation> allocate(const perf::HwConfig& config);

  /// Return a previous grant. Valid for down machines too: the capacity
  /// re-joins the machine's ledger and becomes usable again on mark_up.
  void release(const Allocation& a);

  /// Take a machine out of service / bring it back. Idempotent; listeners
  /// are notified only on actual transitions.
  void mark_down(int machine);
  void mark_up(int machine);
  bool machine_up(int machine) const;
  int machines_down() const;

  /// Register an up/down observer; returns a token for remove_listener.
  int add_listener(MachineListener fn);
  void remove_listener(int token);

  std::size_t machine_count() const { return free_.size(); }
  /// Free capacity on *up* machines only (what allocate() can still grant).
  int free_cpu_cores() const;
  int free_gpu_pct() const;
  int total_cpu_cores() const { return total_cpu_; }
  int total_gpu_pct() const { return total_gpu_; }
  /// Per-machine free ledger (up or down) — for tests and introspection.
  const MachineSpec& free_of(int machine) const;

 private:
  std::vector<MachineSpec> free_;
  std::vector<char> down_;
  MachineSpec spec_;
  int total_cpu_ = 0;
  int total_gpu_ = 0;
  std::vector<std::pair<int, MachineListener>> listeners_;
  int next_listener_token_ = 1;
};

}  // namespace smiless::cluster
