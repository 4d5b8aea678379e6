#pragma once

#include <string>
#include <vector>

#include "common/json.hpp"
#include "exp/runner.hpp"

namespace smiless::exp {

/// Mean with a 95% confidence half-width (normal approximation,
/// 1.96 * s / sqrt(n); 0 when fewer than two replicates).
struct Stat {
  double mean = 0.0;
  double ci95 = 0.0;
};

/// One group of cells (identical configs up to seed), reduced. Sums are
/// over replicates in cell order; percentiles pool every completed
/// request's E2E latency across the group's replicates.
struct Aggregate {
  std::string label;   ///< shared grid label ("" for a single ungridded cell)
  std::string policy;  ///< resolved display name from the run
  std::string app;     ///< resolved application name
  double sla = 0.0;
  int replicates = 0;

  Stat cost;
  Stat violation_ratio;
  Stat goodput;
  double e2e_p50 = 0.0;
  double e2e_p99 = 0.0;

  long submitted = 0;
  long completed = 0;
  long failed = 0;
  long initializations = 0;
  long retries = 0;
  long evictions = 0;
  long timeouts = 0;

  /// Total cost across replicates (sum, not mean) — what the Fig. 8/10
  /// tables report.
  double cost_total = 0.0;
};

/// Reduce cells into aggregates, grouped by ExperimentConfig::group_key in
/// first-seen cell order. Deterministic: every sum/percentile is computed
/// in cell-index order.
std::vector<Aggregate> aggregate(const std::vector<CellResult>& cells);

/// Options for the JSON emitter.
struct EmitOptions {
  bool include_cells = true;  ///< per-cell rows next to the aggregates
  int indent = 2;
};

/// Render a sweep's outcome as a JSON document. Byte-stable: two runs of
/// the same grid — at any thread count — dump identical bytes.
json::Value summary_json(const std::vector<CellResult>& cells,
                         const std::vector<Aggregate>& aggregates,
                         const EmitOptions& options = {});

/// One CSV row per aggregate (header included).
std::string summary_csv(const std::vector<Aggregate>& aggregates);

}  // namespace smiless::exp
