#include "serverless/sharding.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "common/check.hpp"
#include "concurrency/thread_pool.hpp"
#include "obs/merge.hpp"
#include "obs/telemetry.hpp"
#include "prof/profiler.hpp"
#include "sim/clock.hpp"
#include "workload/arrival_cursor.hpp"

namespace smiless::serverless {

/// One lane's private world. Member order is construction order: Engine,
/// Cluster, Rng, FaultInjector (which forks its child stream off the lane
/// Rng iff any fault knob is set), then Platform — the order every golden
/// was pinned under.
struct ShardedPlatform::Lane {
  sim::Engine engine;
  cluster::Cluster cluster;
  int machine_base;
  Rng rng;
  faults::FaultInjector injector;
  std::unique_ptr<obs::Telemetry> own_telemetry;  ///< private bundle, merged after the run
  obs::Telemetry* telemetry = nullptr;  ///< where the lane publishes (own or the caller's)
  std::unique_ptr<prof::Profiler> prof;  ///< private: profilers are not thread-safe
  std::unique_ptr<Platform> platform;
  std::vector<int> app_map;                  ///< lane-local app id -> global
  std::vector<AppId> ids;                    ///< lane-local deploy handles
  std::vector<std::vector<SimTime>> arrivals;  ///< per lane-local app, sorted
  std::vector<workload::ArrivalCursor> cursors;  ///< streaming position per app

  Lane(std::size_t machines, cluster::MachineSpec spec, int base, std::uint64_t seed,
       faults::FaultSpec fspec)
      : cluster(machines, spec),
        machine_base(base),
        rng(seed),
        injector(std::move(fspec), rng) {}
};

ShardedPlatform::ShardedPlatform(ShardOptions options) : options_(std::move(options)) {
  SMILESS_CHECK(options_.lanes >= 1);
  SMILESS_CHECK(options_.lane_threads >= 0);
  SMILESS_CHECK(options_.machines >= 1);
  // build_lanes hands each lane only the crashes on its machine slice, so a
  // crash on a machine outside the fleet would silently never happen.
  for (const auto& c : options_.faults.crashes)
    if (c.machine < 0 || static_cast<std::size_t>(c.machine) >= options_.machines)
      throw std::invalid_argument("scheduled crash on machine " + std::to_string(c.machine) +
                                  " is outside the fleet of " +
                                  std::to_string(options_.machines) + " machines");
}

ShardedPlatform::~ShardedPlatform() = default;

int ShardedPlatform::add_app(apps::App app, std::shared_ptr<Policy> policy,
                             std::vector<SimTime> arrivals) {
  SMILESS_CHECK_MSG(!ran_, "add_app after run()");
  SMILESS_CHECK(policy != nullptr);
  SMILESS_CHECK(std::is_sorted(arrivals.begin(), arrivals.end()));
  pending_.push_back({std::move(app), std::move(policy), std::move(arrivals)});
  return static_cast<int>(pending_.size()) - 1;
}

int ShardedPlatform::lane_for(std::size_t global_index, int lanes) {
  SMILESS_CHECK(lanes >= 1);
  // splitmix64 finalizer: platform-stable, uniform even for tiny indices.
  std::uint64_t z = static_cast<std::uint64_t>(global_index) + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  return static_cast<int>(z % static_cast<std::uint64_t>(lanes));
}

void ShardedPlatform::build_lanes() {
  SMILESS_CHECK_MSG(!pending_.empty(), "sharded cell with no apps");
  refs_.resize(pending_.size());

  // Stable partition; only populated lanes get a world, in lane-id order.
  std::vector<std::vector<std::size_t>> members(static_cast<std::size_t>(options_.lanes));
  for (std::size_t g = 0; g < pending_.size(); ++g)
    members[static_cast<std::size_t>(lane_for(g, options_.lanes))].push_back(g);
  std::vector<int> populated;
  for (int l = 0; l < options_.lanes; ++l)
    if (!members[static_cast<std::size_t>(l)].empty()) populated.push_back(l);
  SMILESS_CHECK_MSG(populated.size() <= options_.machines,
                    "more populated lanes (" << populated.size() << ") than machines ("
                                             << options_.machines << ")");

  // Lanes get a private pool: they must never share the policies' solver
  // pool (a policy blocking on its own pool's futures from a lane thread
  // could deadlock it). A pool with one effective worker (e.g.
  // lane_threads=0 on a single-core host) is pure dispatch overhead, so
  // those cases run the lanes on the calling thread — the results are
  // identical either way, per the lane_threads invariance contract.
  if (options_.lane_threads != 1 && populated.size() > 1) {
    const std::size_t want =
        options_.lane_threads == 0
            ? std::max<std::size_t>(1, std::thread::hardware_concurrency())
            : static_cast<std::size_t>(options_.lane_threads);
    workers_ = std::min(want, populated.size());
  }
  // A lone lane needs no merge: its app map is the identity and its machine
  // base is 0, so it publishes straight into the caller's bundle.
  const bool lone = populated.size() == 1;

  const std::size_t base_machines = options_.machines / populated.size();
  const std::size_t extra = options_.machines % populated.size();
  int machine_base = 0;
  lanes_.reserve(populated.size());
  for (std::size_t p = 0; p < populated.size(); ++p) {
    const int lane_id = populated[p];
    const auto& mine = members[static_cast<std::size_t>(lane_id)];
    const std::size_t n = base_machines + (p < extra ? 1 : 0);

    // Lane seed: decorrelate lanes by their first member's global index.
    // Mixing with index 0 is the identity, so a lone populated lane (every
    // single-app cell, and every K=1 run) draws from the cell seed itself.
    const std::uint64_t lane_seed =
        options_.seed ^
        (static_cast<std::uint64_t>(mine.front()) * 0x9E3779B97F4A7C15ull);

    faults::FaultSpec fspec = options_.faults;
    fspec.crashes.clear();
    for (const auto& c : options_.faults.crashes)
      if (c.machine >= machine_base && c.machine < machine_base + static_cast<int>(n)) {
        faults::ScheduledCrash local = c;
        local.machine -= machine_base;
        fspec.crashes.push_back(local);
      }

    auto lane = std::make_unique<Lane>(n, options_.machine_spec, machine_base, lane_seed,
                                       std::move(fspec));
    if (options_.telemetry != nullptr && !lone) {
      lane->own_telemetry = std::make_unique<obs::Telemetry>();
      lane->telemetry = lane->own_telemetry.get();
    } else {
      lane->telemetry = options_.telemetry;
    }
    if (options_.prof != nullptr) {
      lane->prof = std::make_unique<prof::Profiler>(lane_id);
      if (workers_ == 1) lane->prof->nest_in(options_.prof);
      lane->engine.set_profiler(lane->prof.get());
    }
    PlatformOptions popt = options_.platform;
    popt.faults = lane->injector.enabled() ? &lane->injector : nullptr;
    popt.bus = lane->telemetry != nullptr ? &lane->telemetry->bus() : nullptr;
    popt.prof = lane->prof.get();
    lane->platform = std::make_unique<Platform>(lane->engine, lane->cluster,
                                                options_.pricing, lane->rng, popt);
    lane->injector.set_bus(popt.bus);
    lane->injector.arm(lane->engine, lane->cluster);

    for (std::size_t g : mine) refs_[g].lane_index = static_cast<int>(p);
    machine_base += static_cast<int>(n);
    lanes_.push_back(std::move(lane));
  }

  // Deploy in global order so a lane's deploy sequence is the subsequence
  // of the cell's deploy order that landed in it.
  for (std::size_t g = 0; g < pending_.size(); ++g) {
    PendingApp& pa = pending_[g];
    Lane& lane = *lanes_[static_cast<std::size_t>(refs_[g].lane_index)];
    if (options_.telemetry != nullptr) {
      std::vector<std::string> node_names;
      node_names.reserve(pa.app.dag.size());
      for (std::size_t nd = 0; nd < pa.app.dag.size(); ++nd)
        node_names.push_back(pa.app.dag.name(static_cast<dag::NodeId>(nd)));
      if (lane.own_telemetry != nullptr)
        lane.telemetry->register_app(static_cast<int>(lane.app_map.size()), pa.app.name,
                                     node_names, pa.app.sla);
      options_.telemetry->register_app(static_cast<int>(g), pa.app.name,
                                       std::move(node_names), pa.app.sla);
    }
    // Decision records go to the audit log of the bundle the lane publishes
    // to; with several lanes that is a private one, merged after the run,
    // since a caller-attached log would be written from several threads.
    pa.policy->set_audit_log(lane.telemetry != nullptr ? &lane.telemetry->audit() : nullptr);
    const AppId id = lane.platform->deploy(std::move(pa.app), std::move(pa.policy));
    refs_[g].local = id;
    lane.ids.push_back(id);
    lane.app_map.push_back(static_cast<int>(g));
    lane.arrivals.push_back(std::move(pa.arrivals));
  }

  // Cursors are built only after every arrival vector is in place: they
  // point at the inner vectors, which move while the outer one grows.
  for (auto& lane : lanes_)
    for (const auto& arr : lane->arrivals) lane->cursors.emplace_back(&arr);
}

void ShardedPlatform::run_lane(Lane& lane, SimTime end, sim::Clock* clock) const {
  const double w = options_.platform.window_seconds;
  if (clock != nullptr) clock->start(lane.engine.now());
  for (double t = 0.0; t < end;) {
    const double step_end = std::min(end, t + w);
    prof::ScopeTimer lane_scope(lane.prof.get(), prof::Site::LaneStep);
    // Arrivals stream in through the shared ArrivalCursor: those strictly
    // before the window's end, and every remaining one (even past `end`) in
    // the final window — the tail flush, so the scheduled-event tally
    // counts the whole trace.
    const bool flush = step_end >= end;
    for (std::size_t a = 0; a < lane.cursors.size(); ++a) {
      const auto submit = [&](SimTime at) { lane.platform->submit_request(lane.ids[a], at); };
      if (flush) {
        lane.cursors[a].drain_all(submit);
      } else {
        lane.cursors[a].drain_before(step_end, submit);
      }
    }
    if (clock != nullptr) {
      // Paced: fire the window one instant at a time, each once the clock
      // allows it. The clock only delays, so the trajectory is the one a
      // single run_until(step_end) produces.
      for (SimTime next = lane.engine.next_time(); next <= step_end;
           next = lane.engine.next_time()) {
        if (!clock->wait_until(next)) return;
        lane.engine.run_until(next);
      }
    }
    lane.engine.run_until(step_end);
    t = step_end;
  }
}

void ShardedPlatform::run(SimTime end, sim::Clock* clock) {
  SMILESS_CHECK_MSG(!ran_, "ShardedPlatform::run is one-shot");
  ran_ = true;
  SMILESS_CHECK(end > 0.0);
  SMILESS_CHECK(options_.platform.window_seconds > 0.0);
  build_lanes();
  SMILESS_CHECK_MSG(clock == nullptr || lanes_.size() == 1,
                    "a paced run needs one populated lane, got " << lanes_.size());

  {
    // Lane-major: each lane runs its own window loop to the horizon as one
    // task. No lane reads another's state, so lanes need not meet until
    // the end; the coordinator charges its one wait for all of them to the
    // barrier site. parallel_for waits for every lane before rethrowing
    // the first error, so no lane outlives a failed run().
    prof::ScopeTimer barrier(options_.prof, prof::Site::ShardBarrier);
    if (workers_ > 1) {
      ThreadPool pool(workers_);
      parallel_for(pool, lanes_.size(),
                   [&](std::size_t li) { run_lane(*lanes_[li], end, nullptr); });
    } else {
      for (auto& lane : lanes_) run_lane(*lane, end, clock);
    }
  }

  {
    prof::ScopeTimer fin_scope(options_.prof, prof::Site::Finalize);
    for (auto& lane : lanes_) lane->platform->finalize(end);

    if (options_.telemetry != nullptr && lanes_.size() > 1) {
      std::vector<obs::LaneTelemetry> streams;
      streams.reserve(lanes_.size());
      for (const auto& lane : lanes_)
        streams.push_back({lane->telemetry, &lane->app_map, lane->machine_base});
      obs::merge_lanes(streams, *options_.telemetry);
    }
  }

  if (options_.prof != nullptr)
    for (const auto& lane : lanes_)
      if (lane->prof != nullptr) options_.prof->merge(*lane->prof);
}

const AppMetrics& ShardedPlatform::metrics(int app) const {
  SMILESS_CHECK_MSG(ran_, "metrics before run()");
  SMILESS_CHECK(app >= 0 && static_cast<std::size_t>(app) < refs_.size());
  const AppRef& r = refs_[static_cast<std::size_t>(app)];
  return lanes_[static_cast<std::size_t>(r.lane_index)]->platform->metrics(r.local);
}

sim::EngineStats ShardedPlatform::engine_stats() const {
  sim::EngineStats sum;
  for (const auto& lane : lanes_) {
    const sim::EngineStats& s = lane->engine.stats();
    sum.scheduled += s.scheduled;
    sum.fired += s.fired;
    sum.cancelled += s.cancelled;
  }
  return sum;
}

faults::FaultStats ShardedPlatform::fault_stats() const {
  faults::FaultStats sum;
  for (const auto& lane : lanes_) {
    const faults::FaultStats& s = lane->injector.stats();
    sum.init_failures += s.init_failures;
    sum.stragglers += s.stragglers;
    sum.crashes += s.crashes;
    sum.recoveries += s.recoveries;
  }
  return sum;
}

}  // namespace smiless::serverless
