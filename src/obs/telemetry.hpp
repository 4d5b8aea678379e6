#pragma once

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/json.hpp"
#include "obs/audit.hpp"
#include "obs/event_bus.hpp"
#include "obs/metrics.hpp"
#include "obs/perfetto.hpp"
#include "obs/timeseries.hpp"

namespace smiless::obs {

/// Per-run observability bundle: the event bus producers publish to, a
/// metric registry fed online from that bus (per-event-type counters plus
/// wait/inference/init/e2e latency histograms keyed by app and node), and
/// the policy decision audit log. Exporters render the retained event stream
/// into artifacts after the run. One Telemetry belongs to one experiment
/// cell; cross-cell artifacts are produced by the exp-layer artifact writers,
/// which iterate cells in deterministic order.
class Telemetry {
 public:
  Telemetry();

  EventBus& bus() { return bus_; }
  const EventBus& bus() const { return bus_; }
  MetricRegistry& registry() { return registry_; }
  const MetricRegistry& registry() const { return registry_; }
  AuditLog& audit() { return audit_; }
  const AuditLog& audit() const { return audit_; }

  /// Name the tracks for a deployed app: display name + DAG node names in
  /// NodeId order. Must be called before that app's events are interpreted
  /// by name (metrics use the names as keys). `sla` (seconds; 0 = none)
  /// feeds the time series' slo_attainment accounting.
  void register_app(int app, std::string name, std::vector<std::string> node_names,
                    double sla = 0.0);

  const std::map<int, AppTrackInfo>& apps() const { return apps_; }

  /// Start the fixed-cadence sim-time series (see timeseries.hpp). Call
  /// before the run; no-op repeat calls with the same cadence are fine.
  void enable_series(double cadence) { series_.enable(cadence); }
  bool series_enabled() const { return series_.enabled(); }
  /// Close the series' trailing bins at the run horizon. Idempotent.
  void finalize_series(double end) { series_.finalize(end); }
  const TimeSeries& series() const { return series_; }
  /// Serialized time series (requires enable_series + finalize_series).
  json::Value series_json() const { return series_.to_json(apps_); }

  /// This run's Chrome trace-event records, one at a time into `sink`
  /// (see perfetto.hpp).
  void perfetto_records(int pid_base, const std::string& label, const json::Sink& sink) const;
  /// The same records as one array.
  json::Value perfetto_json(int pid_base = 0, const std::string& label = "") const;
  /// Counters / gauges / histograms with deterministic p50/p90/p95/p99.
  json::Value metrics_json() const;
  /// Policy decision records (solver wall time excluded).
  json::Value audit_json() const;

 private:
  void on_event(const Event& e);
  std::string app_label(int app) const;
  std::string node_label(int app, int node) const;

  EventBus bus_;
  MetricRegistry registry_;
  AuditLog audit_;
  TimeSeries series_;
  std::map<int, AppTrackInfo> apps_;
  // (app, node, request) -> time the invocation became ready, for queue-wait.
  std::map<std::tuple<int, int, int>, double> ready_at_;
};

}  // namespace smiless::obs
