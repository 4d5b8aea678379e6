#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "math/stats.hpp"

namespace smiless::obs {

int Histogram::bucket_index(double value) {
  if (!(value >= kMinValue)) return 0;  // underflow (also NaN / negatives)
  const double pos = std::log10(value / kMinValue) * kBucketsPerDecade;
  const int idx = static_cast<int>(std::floor(pos));
  if (idx >= kDecades * kBucketsPerDecade) return kNumBuckets - 1;  // overflow
  return idx + 1;
}

double Histogram::bucket_upper(int i) {
  if (i <= 0) return kMinValue;
  if (i >= kNumBuckets - 1) return std::numeric_limits<double>::infinity();
  return kMinValue * std::pow(10.0, static_cast<double>(i) / kBucketsPerDecade);
}

void Histogram::add(double value) {
  ++buckets_[static_cast<std::size_t>(bucket_index(value))];
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
}

double Histogram::quantile(double p) const {
  if (count_ == 0) return 0.0;
  const std::uint64_t rank = math::nearest_rank(count_, p);
  std::uint64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    seen += buckets_[static_cast<std::size_t>(i)];
    if (seen >= rank) {
      // Report the bucket's upper bound, clamped to the observed range so the
      // result is always a plausible sample value (and finite).
      return std::clamp(bucket_upper(i), min_, max_);
    }
  }
  return max_;
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  for (int i = 0; i < kNumBuckets; ++i)
    buckets_[static_cast<std::size_t>(i)] += other.buckets_[static_cast<std::size_t>(i)];
  count_ += other.count_;
  sum_ += other.sum_;
}

json::Value Histogram::to_json() const {
  auto v = json::Value::object();
  v["count"] = count_;
  v["sum"] = sum_;
  v["min"] = min_;
  v["max"] = max_;
  v["mean"] = mean();
  v["p50"] = quantile(50.0);
  v["p90"] = quantile(90.0);
  v["p95"] = quantile(95.0);
  v["p99"] = quantile(99.0);
  auto buckets = json::Value::array();
  for (int i = 0; i < kNumBuckets; ++i) {
    if (buckets_[static_cast<std::size_t>(i)] == 0) continue;
    auto pair = json::Value::array();
    pair.push_back(json::Value(i));
    pair.push_back(json::Value(buckets_[static_cast<std::size_t>(i)]));
    buckets.push_back(std::move(pair));
  }
  v["buckets"] = std::move(buckets);
  return v;
}

std::uint64_t MetricRegistry::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

const Histogram* MetricRegistry::histogram(const std::string& name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

void MetricRegistry::merge(const MetricRegistry& other) {
  for (const auto& [name, v] : other.counters_) counters_[name] += v;
  for (const auto& [name, v] : other.gauges_) gauges_[name] = v;
  for (const auto& [name, h] : other.histograms_) histograms_[name].merge(h);
}

json::Value MetricRegistry::to_json() const {
  auto v = json::Value::object();
  auto counters = json::Value::object();
  for (const auto& [name, value] : counters_) counters[name] = value;
  v["counters"] = std::move(counters);
  auto gauges = json::Value::object();
  for (const auto& [name, value] : gauges_) gauges[name] = value;
  v["gauges"] = std::move(gauges);
  auto hists = json::Value::object();
  for (const auto& [name, h] : histograms_) hists[name] = h.to_json();
  v["histograms"] = std::move(hists);
  return v;
}

}  // namespace smiless::obs
