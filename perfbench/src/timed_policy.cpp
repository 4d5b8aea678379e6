#include "timed_policy.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <utility>

namespace perfbench {

namespace sl = smiless::serverless;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

double seconds_since(std::uint64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

namespace {

constexpr int kSub = HookTimes::kBucketsPerOctave;
constexpr int kSubBits = 4;  // log2(kSub)

/// Values below kSub get one bucket each; above, an octave splits into kSub
/// buckets by the kSubBits bits under the leading one.
int bucket_of(std::uint64_t ns) {
  if (ns < static_cast<std::uint64_t>(kSub)) return static_cast<int>(ns);
  const int e = 63 - std::countl_zero(ns);
  const int b = (e - kSubBits + 1) * kSub + static_cast<int>((ns >> (e - kSubBits)) & (kSub - 1));
  return std::min(b, HookTimes::kBuckets - 1);
}

double bucket_mid(int b) {
  if (b < kSub) return b;
  const int e = b / kSub + kSubBits - 1;
  const int m = b % kSub;
  const double width = static_cast<double>(std::uint64_t{1} << (e - kSubBits));
  return static_cast<double>(kSub + m) * width + width / 2.0;
}

template <typename Fn>
void timed(HookTimes& times, Fn&& fn) {
  const std::uint64_t t0 = now_ns();
  fn();
  times.add(now_ns() - t0);
}

}  // namespace

void HookTimes::add(std::uint64_t ns) {
  ++calls;
  total_ns += ns;
  max_ns = std::max(max_ns, ns);
  ++buckets[static_cast<std::size_t>(bucket_of(ns))];
}

void HookTimes::merge(const HookTimes& other) {
  calls += other.calls;
  total_ns += other.total_ns;
  max_ns = std::max(max_ns, other.max_ns);
  for (std::size_t i = 0; i < buckets.size(); ++i) buckets[i] += other.buckets[i];
}

double HookTimes::quantile_ns(double q) const {
  if (calls == 0) return 0.0;
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(calls))));
  std::uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += buckets[static_cast<std::size_t>(b)];
    if (seen >= rank) return bucket_mid(b);
  }
  return bucket_mid(kBuckets - 1);
}

TimedPolicy::TimedPolicy(std::shared_ptr<sl::Policy> inner) : inner_(std::move(inner)) {}

void TimedPolicy::on_deploy(sl::AppId app, const smiless::apps::App& spec,
                            sl::PlatformView& platform) {
  timed(deploy_, [&] { inner_->on_deploy(app, spec, platform); });
}

void TimedPolicy::on_window(sl::AppId app, const smiless::apps::App& spec,
                            sl::PlatformView& platform, const sl::WindowStats& stats) {
  timed(window_, [&] { inner_->on_window(app, spec, platform, stats); });
}

void TimedPolicy::on_arrival(sl::AppId app, const smiless::apps::App& spec,
                             sl::PlatformView& platform, smiless::SimTime now) {
  timed(arrival_, [&] { inner_->on_arrival(app, spec, platform, now); });
}

void TimedPolicy::on_instance_failed(sl::AppId app, const smiless::apps::App& spec,
                                     sl::PlatformView& platform, smiless::dag::NodeId node,
                                     sl::InstanceFailure kind) {
  timed(failed_, [&] { inner_->on_instance_failed(app, spec, platform, node, kind); });
}

}  // namespace perfbench
