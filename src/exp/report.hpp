#pragma once

/// Self-contained HTML serving report (`--report-out`). One file, no network
/// fetches: the page inlines its CSS, its chart-rendering JS and the data
/// payload (a JSON blob in a <script type="application/json"> island), so it
/// opens from file:// on an air-gapped box. The payload carries, per cell,
/// the run summary, the fixed-cadence obs::TimeSeries (SLO attainment, p99,
/// cold starts, instance states, queue depth, utilization, cost rate) and
/// the runtime self-profiler breakdown; the JS renders SVG line charts and
/// wall-time tables from it client-side.
///
/// Everything except the profiler section is a pure function of the cell
/// list — byte-stable across thread counts. The profiler section is
/// wall-clock data by definition and is why a report is never a golden.

#include <string>
#include <vector>

#include "common/json.hpp"
#include "exp/runner.hpp"

namespace smiless::exp {

/// The data island for a set of executed cells: {"title", "cells": [{cell
/// header, "summary", optional "series", optional "profile"}]} in cell
/// order. Exposed separately so tests can validate structure without
/// parsing HTML.
json::Value report_payload(const std::vector<CellResult>& cells, const std::string& title);

/// Render any report payload (shape above) into a complete standalone HTML
/// document. Generic over the payload so bench_throughput can emit a
/// profile-only report through the same template.
std::string render_report(const json::Value& payload);

/// report_payload + render_report + write to `path`. Throws `cannot write
/// <path>` unless the whole document reached the file.
void write_report(const std::vector<CellResult>& cells, const std::string& path);

}  // namespace smiless::exp
