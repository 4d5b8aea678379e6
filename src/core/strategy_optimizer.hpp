#pragma once

#include <span>
#include <vector>

#include "core/prewarm.hpp"
#include "perfmodel/latency_model.hpp"

namespace smiless::core {

/// How the optimizer prices a (function, config) choice.
enum class CostModel {
  /// SMIless: adaptive cold-start, min(T+I, IT) * U (Eq. 5 / Theorem 5.1).
  Adaptive,
  /// Orion's assumption: "right pre-warming" always possible, so every
  /// invocation pays (T+I) * U regardless of the arrival rate.
  AlwaysPrewarm,
  /// Always keep alive: every invocation pays IT * U.
  AlwaysKeepAlive,
};

/// Solution for one sequential chain of functions.
struct ChainSolution {
  std::vector<FunctionDecision> decisions;  ///< one per chain position
  double latency = 0.0;                     ///< sum of inference times
  Dollars cost = 0.0;                       ///< sum of per-invocation costs
  bool feasible = false;                    ///< latency <= SLA achievable
  long nodes_explored = 0;                  ///< search effort (Fig. 16a)
};

struct OptimizerOptions {
  std::vector<perf::HwConfig> config_space;
  perf::Pricing pricing;
  double n_sigma = 3.0;
  double prewarm_margin = 0.6;  ///< see evaluate_decision()
  int top_k = 1;  ///< beam width of the top-K path search (§V-C1; paper uses 1)

  OptimizerOptions();
};

/// The Strategy Optimizer (§V-C): top-K path search over the multi-way tree
/// whose layers are the functions of a chain and whose branches are the
/// configurations ordered by adaptive cost. Worst case O(N * M) SLA checks
/// after an O(N * M log M) ordering step.
class StrategyOptimizer {
 public:
  explicit StrategyOptimizer(OptimizerOptions options = {});

  /// Optimize one sequential chain: pick a configuration (and implied
  /// cold-start mode) per function minimising total cost subject to
  /// sum of inference times <= sla. If even the fastest configuration
  /// everywhere misses the SLA, returns that assignment with
  /// feasible == false.
  ChainSolution optimize_chain(std::span<const perf::FunctionPerf> chain, double interarrival,
                               double sla) const;

  /// Exhaustive joint search over the chain (M^N nodes) — the reference the
  /// path search is compared against (OPT, Fig. 16a).
  ChainSolution optimize_chain_exhaustive(std::span<const perf::FunctionPerf> chain,
                                          double interarrival, double sla) const;

  /// Exact constrained-shortest-path solve via Dijkstra on the layered
  /// product graph with latency discretisation — another Fig. 16a
  /// comparator.
  ChainSolution optimize_chain_cspath(std::span<const perf::FunctionPerf> chain,
                                      double interarrival, double sla,
                                      double latency_step = 0.005) const;

  const OptimizerOptions& options() const { return options_; }
  /// Tighten/relax the pre-warm margin at runtime (the policy scales it by
  /// the observed gap variability: noisy arrival processes should not
  /// gamble on just-in-time warm-ups).
  void set_prewarm_margin(double margin) {
    SMILESS_CHECK(margin > 0.0 && margin <= 1.0);
    options_.prewarm_margin = margin;
  }
  void set_cost_model(CostModel m) { cost_model_ = m; }

 private:
  FunctionDecision evaluate(const perf::FunctionPerf& fn, const perf::HwConfig& config,
                            double interarrival) const;
  /// All decisions for one function, sorted by ascending cost.
  std::vector<FunctionDecision> ranked_decisions(const perf::FunctionPerf& fn,
                                                 double interarrival) const;

  OptimizerOptions options_;
  CostModel cost_model_ = CostModel::Adaptive;
};

}  // namespace smiless::core
