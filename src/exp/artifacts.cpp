#include "exp/artifacts.hpp"

#include <sstream>

#include "common/output_file.hpp"
#include "exp/report.hpp"

namespace smiless::exp {

namespace {

/// Per-cell process-id range in the combined trace. 64 leaves room for the
/// cluster process plus 63 apps per cell, far beyond any deployment here.
constexpr int kPidsPerCell = 64;

std::string cell_label(const CellResult& cell) {
  return cell.config.display_name() + " seed=" + std::to_string(cell.config.seed);
}

json::Value cell_header(const CellResult& cell) {
  json::Value v = json::Value::object();
  v["label"] = cell.config.display_name();
  v["policy"] = cell.config.policy;
  v["app"] = cell.config.app;
  v["seed"] = static_cast<long long>(cell.config.seed);
  return v;
}

// Each producer hands `sink` one array element at a time, in document
// order: write_artifacts streams them to a file, the combined_* functions
// collect them.
using Producer = void (*)(const std::vector<CellResult>&, const json::Sink&);

void trace_records(const std::vector<CellResult>& cells, const json::Sink& sink) {
  for (std::size_t i = 0; i < cells.size(); ++i)
    if (cells[i].telemetry != nullptr)
      cells[i].telemetry->perfetto_records(static_cast<int>(i) * kPidsPerCell,
                                           cell_label(cells[i]), sink);
}

void metrics_rows(const std::vector<CellResult>& cells, const json::Sink& sink) {
  for (const auto& cell : cells) {
    if (cell.telemetry == nullptr) continue;
    json::Value row = cell_header(cell);
    row["metrics"] = cell.telemetry->metrics_json();
    sink(std::move(row));
  }
}

void audit_rows(const std::vector<CellResult>& cells, const json::Sink& sink) {
  for (const auto& cell : cells) {
    if (cell.telemetry == nullptr) continue;
    json::Value row = cell_header(cell);
    row["decisions"] = std::move(cell.telemetry->audit_json()["decisions"]);
    sink(std::move(row));
  }
}

void series_rows(const std::vector<CellResult>& cells, const json::Sink& sink) {
  for (const auto& cell : cells) {
    if (cell.telemetry == nullptr || !cell.telemetry->series_enabled()) continue;
    json::Value row = cell_header(cell);
    row["series"] = cell.telemetry->series_json();
    sink(std::move(row));
  }
}

void profile_rows(const std::vector<CellResult>& cells, const json::Sink& sink) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (cells[i].profile == nullptr) continue;
    json::Value row = cell_header(cells[i]);
    row["profile"] = cells[i].profile->to_json();
    row["perfetto"] = cells[i].profile->perfetto_events(static_cast<int>(i) * kPidsPerCell);
    sink(std::move(row));
  }
}

json::Value collect(Producer produce, const std::vector<CellResult>& cells) {
  json::Value out = json::Value::array();
  produce(cells, [&out](json::Value&& v) { out.push_back(std::move(v)); });
  return out;
}

/// {"cells": [rows]}
json::Value cells_document(Producer rows, const std::vector<CellResult>& cells) {
  json::Value v = json::Value::object();
  v["cells"] = collect(rows, cells);
  return v;
}

/// The bytes json::save_file writes for collect(produce) or, with a `key`,
/// for {key: collect(produce)}, written one element at a time.
void stream_to(const std::string& path, const std::string& key, Producer produce,
               const std::vector<CellResult>& cells) {
  json::ArrayWriter out(path, key);
  produce(cells, [&out](json::Value&& v) { out.push(v); });
  out.close();
}

void write_windows_csv(std::ostream& os, const std::vector<CellResult>& cells) {
  os << "cell,label,policy,app,seed,window_start,arrivals,instances_total,"
        "instances_cpu,instances_gpu\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& cell = cells[i];
    for (const auto& w : cell.result.windows) {
      os << i << ',' << cell.config.display_name() << ',' << cell.config.policy << ','
         << cell.config.app << ',' << cell.config.seed << ','
         << json::Value::format_double(w.window_start) << ',' << w.arrivals << ','
         << w.instances_total << ',' << w.instances_cpu << ',' << w.instances_gpu << '\n';
    }
  }
}

}  // namespace

json::Value combined_trace(const std::vector<CellResult>& cells) {
  return collect(trace_records, cells);
}

json::Value combined_metrics(const std::vector<CellResult>& cells) {
  return cells_document(metrics_rows, cells);
}

json::Value combined_audit(const std::vector<CellResult>& cells) {
  return cells_document(audit_rows, cells);
}

std::string windows_csv(const std::vector<CellResult>& cells) {
  std::ostringstream os;
  write_windows_csv(os, cells);
  return os.str();
}

json::Value combined_series(const std::vector<CellResult>& cells) {
  return cells_document(series_rows, cells);
}

json::Value combined_profile(const std::vector<CellResult>& cells) {
  return cells_document(profile_rows, cells);
}

void write_artifacts(const std::vector<CellResult>& cells, const ObservabilityOptions& obs) {
  if (!obs.trace_out.empty()) stream_to(obs.trace_out, "", trace_records, cells);
  if (!obs.metrics_out.empty()) stream_to(obs.metrics_out, "cells", metrics_rows, cells);
  if (!obs.audit_out.empty()) stream_to(obs.audit_out, "cells", audit_rows, cells);
  if (!obs.windows_out.empty()) {
    OutputFile file(obs.windows_out);
    write_windows_csv(file.stream(), cells);
    file.close();
  }
  if (!obs.series_out.empty()) stream_to(obs.series_out, "cells", series_rows, cells);
  if (!obs.profile_out.empty()) stream_to(obs.profile_out, "cells", profile_rows, cells);
  if (!obs.report_out.empty()) write_report(cells, obs.report_out);
}

}  // namespace smiless::exp
