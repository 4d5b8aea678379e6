#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <span>
#include <string>

#include "common/json.hpp"

namespace smiless::obs {

/// Fixed-bucket log-scale histogram covering 1e-4 .. 1e4 seconds with 8
/// buckets per decade, plus underflow/overflow buckets. The bucket layout is
/// compile-time fixed, so two histograms built from the same samples in any
/// split are bit-identical after merge(), and quantiles are deterministic:
/// quantile() uses the nearest-rank definition from math/stats and returns a
/// bucket upper bound clamped to the observed [min, max]. That makes p50/p99
/// independent of sample arrival order and of how work was sharded across
/// threads — the property the raw-sample percentile helpers cannot give us.
class Histogram {
 public:
  static constexpr int kBucketsPerDecade = 8;
  static constexpr int kDecades = 8;           // 1e-4 .. 1e4
  static constexpr double kMinValue = 1e-4;
  // underflow + log-scale buckets + overflow
  static constexpr int kNumBuckets = kDecades * kBucketsPerDecade + 2;

  void add(double value);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return min_; }
  double max() const { return max_; }
  double mean() const { return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_); }

  /// Nearest-rank quantile, p in [0,100]. Returns 0 when empty.
  double quantile(double p) const;

  /// Upper bound of bucket i (inclusive); the value that quantile() reports
  /// for samples landing in that bucket.
  static double bucket_upper(int i);
  /// Bucket index a value falls into.
  static int bucket_index(double value);

  void merge(const Histogram& other);

  /// {"count", "sum", "min", "max", "p50", "p90", "p95", "p99",
  ///  "buckets": [[index, count], ...]} — buckets are sparse, ordered by index.
  json::Value to_json() const;

 private:
  std::array<std::uint64_t, kNumBuckets> buckets_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Named counters, gauges and histograms. Keys are hierarchical slash paths
/// ("e2e/wl1", "faults/init_failures"); std::map keeps serialization order
/// independent of insertion order, so merged registries dump byte-identically
/// however the cells were scheduled.
class MetricRegistry {
 public:
  void count(const std::string& name, std::uint64_t delta = 1) { counters_[name] += delta; }
  void gauge(const std::string& name, double value) { gauges_[name] = value; }
  void observe(const std::string& name, double value) { histograms_[name].add(value); }

  std::uint64_t counter(const std::string& name) const;
  const Histogram* histogram(const std::string& name) const;

  const std::map<std::string, std::uint64_t>& counters() const { return counters_; }
  const std::map<std::string, double>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const { return histograms_; }

  /// Counters add, gauges take the other's value, histograms merge.
  void merge(const MetricRegistry& other);

  /// {"counters": {...}, "gauges": {...}, "histograms": {name: {...}}}
  json::Value to_json() const;

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace smiless::obs
