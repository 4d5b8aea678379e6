#pragma once

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "apps/catalog.hpp"
#include "common/json.hpp"
#include "common/number.hpp"
#include "common/table.hpp"
#include "exp/aggregate.hpp"
#include "exp/config.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "workload/trace.hpp"

namespace smiless::bench {

/// The shared bench-harness knobs, set once by parse_bench_args() before
/// anything reads them. First-class flags (no environment variables): they
/// change how long the benches run and how many workers execute, never any
/// cell's result — artifacts are bit-identical for every value.
struct BenchArgs {
  double duration = 0.0;     ///< trace length override (0 = bench's default)
  std::size_t threads = 0;   ///< sweep workers (0 = hardware concurrency)
  int lane_threads = 0;      ///< lane-stepping threads for sharded cells
  bool progress = false;     ///< per-cell completion lines on stderr
  std::string report_out;    ///< self-contained HTML report destination
};

inline BenchArgs& bench_args() {
  // detlint:allow(global-state) process-wide CLI knobs, written once in main before any benchmark runs
  static BenchArgs args;
  return args;
}

/// The value of `flag`, parsed whole as one T (common::parse_number), or
/// exit 2 naming the flag: `bench_x: --apps: expected an integer, got "abc"`.
template <class T>
T flag_number(const char* argv0, const char* flag, const char* text) {
  T value{};
  const std::string error = common::parse_number(text, value);
  if (!error.empty()) {
    std::cerr << argv0 << ": " << flag << ": " << error << "\n";
    std::exit(2);
  }
  return value;
}

/// Consume argv[i] if it is one of the shared bench flags (--duration S,
/// --threads N, --lane-threads N, --progress), advancing i past its value.
/// Benches with extra private flags call this first in their own loop.
inline bool consume_shared_flag(int argc, char** argv, int& i) {
  const auto value = [&](const char* flag) -> const char* {
    if (i + 1 >= argc) {
      std::cerr << argv[0] << ": " << flag << " needs a value\n";
      std::exit(2);
    }
    return argv[++i];
  };
  if (!std::strcmp(argv[i], "--duration")) {
    const double v = flag_number<double>(argv[0], "--duration", value("--duration"));
    if (!(v > 0.0 && v <= workload::kMaxTraceDuration)) {
      std::cerr << argv[0] << ": --duration must be > 0 and <= "
                << json::Value::format_double(workload::kMaxTraceDuration) << "\n";
      std::exit(2);
    }
    bench_args().duration = v;
    return true;
  }
  if (!std::strcmp(argv[i], "--threads")) {
    const long v = flag_number<long>(argv[0], "--threads", value("--threads"));
    if (v < 1) {
      std::cerr << argv[0] << ": --threads must be >= 1\n";
      std::exit(2);
    }
    bench_args().threads = static_cast<std::size_t>(v);
    return true;
  }
  if (!std::strcmp(argv[i], "--lane-threads")) {
    const int v = flag_number<int>(argv[0], "--lane-threads", value("--lane-threads"));
    if (v < 0) {
      std::cerr << argv[0] << ": --lane-threads must be >= 0\n";
      std::exit(2);
    }
    bench_args().lane_threads = v;
    return true;
  }
  if (!std::strcmp(argv[i], "--progress")) {
    bench_args().progress = true;
    return true;
  }
  if (!std::strcmp(argv[i], "--report-out")) {
    bench_args().report_out = value("--report-out");
    return true;
  }
  return false;
}

/// Parse the shared bench flags; call first thing in main(). Rejects
/// anything consume_shared_flag doesn't know, so typos fail loudly.
inline void parse_bench_args(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (consume_shared_flag(argc, argv, i)) continue;
    if (!std::strcmp(argv[i], "--help") || !std::strcmp(argv[i], "-h")) {
      std::cerr << "usage: " << argv[0]
                << " [--duration S] [--threads N] [--lane-threads N] [--progress]\n"
                   "  [--report-out file.html]\n"
                   "  --duration S      simulated trace length per app (e.g. 7200\n"
                   "                    for the paper's 2-hour runs)\n"
                   "  --threads N       concurrent sweep cells (default: hardware;\n"
                   "                    results are bit-identical for every value)\n"
                   "  --lane-threads N  threads stepping sharded cells' lanes\n"
                   "                    (0 = hardware, 1 = serial; wall-clock only)\n"
                   "  --progress        per-cell completion lines on stderr\n"
                   "  --report-out F    write a self-contained HTML report of the\n"
                   "                    bench's cells (charts + profiler breakdown)\n";
      std::exit(0);
    }
    std::cerr << argv[0] << ": unknown flag " << argv[i] << " (see --help)\n";
    std::exit(2);
  }
}

/// Run a bench's main body and report what it throws the way the CLI does:
/// `<binary>: error: <what>` on stderr and exit 2, where an uncaught
/// exception would abort (a report or artifact path that cannot be
/// written, say). Every bench's main is one call:
/// `return bench::guarded_main(argc, argv, bench_main);`.
inline int guarded_main(int argc, char** argv, int (*body)(int, char**)) {
  try {
    return body(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << argv[0] << ": error: " << e.what() << "\n";
    return 2;
  }
}

/// Trace length (seconds of simulated time) per application. The paper runs
/// 2 hours; each bench's fallback keeps the binary in the tens of seconds.
/// Override with --duration 7200 for full-length runs.
inline double bench_duration(double fallback = 600.0) {
  return bench_args().duration > 0.0 ? bench_args().duration : fallback;
}

/// The one sweep runner every bench binary drives its grid through. Cells
/// run concurrently (--threads overrides the worker count, 1 forces serial;
/// results are bit-identical either way), --lane-threads steps sharded
/// cells' lanes, and --progress prints per-cell completion lines to stderr.
/// When --report-out is set, every executed cell is also accumulated and
/// the HTML report is (re)written after each sweep, so the final file
/// covers everything the bench ran. Built on first use from bench_args(),
/// so parse_bench_args() must run before the first cell does.
class ReportingRunner {
 public:
  explicit ReportingRunner(exp::RunnerOptions options) : inner_(options) {}

  std::vector<exp::CellResult> run(const std::vector<exp::ExperimentConfig>& cells) {
    std::vector<exp::CellResult> out = inner_.run(cells);
    if (!bench_args().report_out.empty()) {
      collected_.insert(collected_.end(), out.begin(), out.end());
      exp::write_report(collected_, bench_args().report_out);
    }
    return out;
  }
  std::vector<exp::CellResult> run(const exp::ExperimentGrid& grid) {
    return run(grid.expand());
  }

  const baselines::ProfileStore& profiles(std::uint64_t seed) { return inner_.profiles(seed); }
  std::shared_ptr<ThreadPool> policy_pool() const { return inner_.policy_pool(); }

 private:
  exp::Runner inner_;
  std::vector<exp::CellResult> collected_;
};

inline ReportingRunner& shared_runner() {
  // detlint:allow(global-state) one runner shared across benchmark registrations; benchmarks run serially
  static ReportingRunner runner = [] {
    exp::RunnerOptions options;
    options.threads = bench_args().threads;
    options.lane_threads = bench_args().lane_threads;
    options.progress = bench_args().progress;
    return ReportingRunner(options);
  }();
  return runner;
}

/// Base cell config of the evaluation section: preset Azure-like traces,
/// statistical predictors opt-in per bench.
inline exp::ExperimentConfig base_config(double sla = 2.0, double duration = 600.0) {
  exp::ExperimentConfig c;
  c.sla = sla;
  c.trace.duration = duration;
  // --report-out flows through the cell config: it turns on the time series
  // and the self-profiler for every cell, and write_artifacts emits the HTML.
  c.obs.report_out = bench_args().report_out;
  return c;
}

/// Config-file spellings of the headline policy zoo (Fig. 8-10 order).
inline std::vector<std::string> headline_policies(bool with_opt = false) {
  std::vector<std::string> out = {"smiless", "grandslam", "icebreaker", "orion", "aquatope"};
  if (with_opt) out.push_back("opt");
  return out;
}

inline std::vector<std::string> workload_names() { return {"wl1", "wl2", "wl3"}; }

/// Display name ("SMIless") for a config spelling ("smiless").
inline std::string policy_display(const std::string& config_name) {
  const auto kind = baselines::parse_policy_kind(config_name);
  return kind ? baselines::policy_kind_name(*kind) : config_name;
}

/// The cell for (policy, app) — benches print fixed policy x app matrices
/// out of one flat sweep result. Aborts if the sweep didn't contain it.
inline const exp::CellResult& cell_for(const std::vector<exp::CellResult>& cells,
                                       const std::string& policy, const std::string& app) {
  for (const auto& c : cells)
    if (c.config.policy == policy && c.config.app == app) return c;
  std::cerr << "bench: no cell for policy=" << policy << " app=" << app << "\n";
  std::abort();
}

inline std::string pct(double v) { return TextTable::num(100.0 * v, 1) + "%"; }

}  // namespace smiless::bench
