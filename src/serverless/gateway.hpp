#pragma once

#include <deque>
#include <vector>

#include "common/units.hpp"
#include "serverless/types.hpp"

namespace smiless::sim {
class Engine;
}  // namespace smiless::sim

namespace smiless::serverless {

class AppTable;
class InstancePool;
class Ledger;
class Platform;
class RequestTracker;
struct PlatformOptions;

/// Gateway — arrival intake and the window ticker. Single responsibility:
/// accept request submissions, count arrivals per counting window (§IV-B:
/// "a specified time window, which is set to one second"), snapshot a
/// WindowSample into the Ledger at each boundary (the only record of a
/// closed window's arrivals), and deliver WindowStats to the policy. Apps deployed at the same instant close their windows at the
/// same instants, so they share one self-rescheduling tick event that closes
/// each app's window in deploy order. Publishes obs: RequestSubmitted is
/// published downstream by the RequestTracker it admits into; the Gateway
/// itself publishes nothing.
class Gateway {
 public:
  Gateway(sim::Engine& engine, const PlatformOptions& options, const AppTable& table,
          Ledger& ledger);

  /// Late binding of the collaborators (the facade wires the cycle).
  void wire(Platform* platform, RequestTracker* tracker, InstancePool* pool);

  /// Open the books for a newly deployed app.
  void add_app();
  /// Start the app's windows: the first one starts now. The app joins the
  /// tick of apps deployed at this instant, or schedules a tick of its own
  /// (called after Policy::on_deploy so the deploy-time plan installation
  /// precedes any window event).
  void start(AppId app);

  /// Schedule a user request for `app` at absolute time `arrival`.
  void submit(AppId app, SimTime arrival);

  /// Stop ticking (finalize). Idempotent.
  void halt() { halted_ = true; }

 private:
  /// Apps deployed at one instant: their windows end together.
  struct WindowGrid {
    SimTime opened = 0.0;  ///< the deploy instant
    SimTime next_end = 0.0;
    std::vector<AppId> apps;  ///< deploy order
  };

  void window_tick(WindowGrid& grid);
  void close_window(AppId app, SimTime end);

  sim::Engine& engine_;
  const PlatformOptions& options_;
  const AppTable& table_;
  Ledger& ledger_;
  Platform* platform_ = nullptr;
  RequestTracker* tracker_ = nullptr;
  InstancePool* pool_ = nullptr;
  /// Arrivals in each app's open window, by AppId; closed windows' counts
  /// live in the app's AppMetrics::windows.
  std::vector<int> open_arrivals_;
  std::deque<WindowGrid> grids_;  // deque: the tick events hold grid refs
  bool halted_ = false;
};

}  // namespace smiless::serverless
