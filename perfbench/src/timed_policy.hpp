#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "serverless/policy.hpp"

namespace perfbench {

/// Wall time of one policy hook: call count, sum, max, and a log-bucketed
/// histogram (16 buckets per power of two, so a quantile is within ~4%).
/// Fixed size, so recording never allocates and never moves the traced
/// pass's allocation count.
struct HookTimes {
  static constexpr int kBucketsPerOctave = 16;
  static constexpr int kOctaves = 42;  ///< up to 2^42 ns, about 73 min per call
  static constexpr int kBuckets = kBucketsPerOctave * kOctaves;

  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t max_ns = 0;
  std::array<std::uint32_t, kBuckets> buckets{};

  void add(std::uint64_t ns);
  void merge(const HookTimes& other);
  /// Nearest-rank quantile (q in (0,1]) at the owning bucket's midpoint;
  /// 0 when nothing was recorded.
  double quantile_ns(double q) const;
  double mean_ns() const { return calls == 0 ? 0.0 : static_cast<double>(total_ns) / calls; }
};

/// Forwarding decorator that times every hook of the policy it wraps. Each
/// instance keeps its own times: lanes call their apps' policies from
/// several threads, and one decorator wraps exactly one app's policy, so no
/// state is shared. Read the times only after the run has ended.
class TimedPolicy final : public smiless::serverless::Policy {
 public:
  explicit TimedPolicy(std::shared_ptr<smiless::serverless::Policy> inner);

  std::string name() const override { return inner_->name(); }
  void on_deploy(smiless::serverless::AppId app, const smiless::apps::App& spec,
                 smiless::serverless::PlatformView& platform) override;
  void on_window(smiless::serverless::AppId app, const smiless::apps::App& spec,
                 smiless::serverless::PlatformView& platform,
                 const smiless::serverless::WindowStats& stats) override;
  void on_arrival(smiless::serverless::AppId app, const smiless::apps::App& spec,
                  smiless::serverless::PlatformView& platform, smiless::SimTime now) override;
  void on_instance_failed(smiless::serverless::AppId app, const smiless::apps::App& spec,
                          smiless::serverless::PlatformView& platform,
                          smiless::dag::NodeId node,
                          smiless::serverless::InstanceFailure kind) override;
  void set_audit_log(smiless::obs::AuditLog* audit) override { inner_->set_audit_log(audit); }

  const HookTimes& deploy() const { return deploy_; }
  const HookTimes& window() const { return window_; }
  const HookTimes& arrival() const { return arrival_; }
  const HookTimes& failed() const { return failed_; }

 private:
  std::shared_ptr<smiless::serverless::Policy> inner_;
  HookTimes deploy_;
  HookTimes window_;
  HookTimes arrival_;
  HookTimes failed_;
};

/// Monotonic wall clock in nanoseconds, for the benchmark's outside timers.
std::uint64_t now_ns();

/// Seconds elapsed since `t0_ns` (a now_ns() reading).
double seconds_since(std::uint64_t t0_ns);

}  // namespace perfbench
