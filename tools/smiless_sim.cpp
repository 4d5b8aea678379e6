// smiless_sim — command-line driver for the SMIless serving simulator.
//
// Every run — single cell or sweep — goes through the exp:: experiment API,
// so anything the CLI can do is reproducible from one JSON config file.
//
//   smiless_sim [serve] [options]
//     serve                 live-serving mode (DESIGN.md §16): run the same
//                           cell paced by rt::WallClock, firing each simulated
//                           instant once its wall deadline passes. Same
//                           config, same books, same stdout summary as the
//                           DES run.
//     --speedup <x>         serve: sim-seconds per wall-second (default 1)
//     --stream-out <file>   serve: live NDJSON event stream (one flushed
//                           line per event; schema pinned by
//                           tests/golden/serve_stream.ndjson)
//     --config <file.json>  load a full ExperimentConfig; later flags override
//     --save-config <file>  write the resolved config as JSON and exit
//     --app <wl1|wl2|wl3|ipa|path.manifest>   application (default wl3)
//     --policy <name|all>   smiless, smiless-homo, smiless-no-dag, opt,
//                           orion, icebreaker, grandslam, aquatope, all
//                           (default smiless)
//     --duration <seconds>  synthetic trace length (default 600)
//     --trace <file.csv>    replay a CSV trace instead of generating one
//     --sla <seconds>       end-to-end SLA target (default 2.0)
//     --seed <n>            RNG seed for trace + simulation (default 42)
//     --lanes <k>           shard the cell into k deterministic lanes
//                           (default 1 = one lane; see DESIGN.md §14)
//     --lane-threads <n>    threads stepping the lanes (0 = hardware,
//                           1 = serial; wall-clock only, never results)
//     --no-lstm             use lightweight statistical predictors
//     --dump-trace <file>   write the (generated) trace as CSV and exit
//     --slow <n>            print the n slowest request traces of the first
//                           policy's run (default 0)
//
//   Sweeps (the parallel experiment runner):
//     --sweep <grid.json>   run every cell of an ExperimentGrid file
//     --threads <n>         concurrent cells (default: hardware; results are
//                           bit-identical for every value)
//     --out <file.json>     write the sweep summary JSON (default: stdout table)
//     --csv <file.csv>      also write per-aggregate CSV
//     --progress            per-cell completion lines on stderr
//
//   Observability (see DESIGN.md "Observability"; artifacts are byte-stable
//   across --threads values, and all flags work for single runs and sweeps):
//     --trace-out <file>    Perfetto/Chrome trace-event JSON (ui.perfetto.dev)
//     --metrics-out <file>  counters / gauges / latency histograms JSON
//     --audit-out <file>    policy decision audit log JSON
//     --windows-out <file>  per-window time-series CSV
//     --series-out <file>   fixed-cadence obs::TimeSeries JSON (byte-stable
//                           across --threads / --lane-threads / lane counts)
//     --series-cadence <s>  time-series bin width in sim seconds (default 1)
//     --report-out <file>   self-contained HTML serving report (charts +
//                           profiler breakdown; opens offline from file://)
//     --profile-out <file>  runtime self-profiler JSON (wall-clock scope
//                           breakdown + sampled internal counters)
//
//   Fault injection (all off by default; see DESIGN.md "Failure model"):
//     --fault-init-p <p>        container init failure probability
//     --fault-straggler-p <p>   straggler probability per inference
//     --fault-straggler-x <f>   straggler latency multiplier (default 4)
//     --fault-crash M@T:D       crash machine M at time T for D seconds
//                               (repeatable)
//     --fault-crash-rate <r>    random crashes per machine per second
//     --fault-mttr <s>          mean time to repair for random crashes
//     --timeout <s>             per-invocation timeout (default: none)
//     --max-retries <n>         retry budget before a request fails
//
// Examples:
//   smiless_sim --app wl1 --policy all --duration 900
//   smiless_sim --config run.json
//   smiless_sim --sweep grid.json --threads 8 --out results.json
//   smiless_sim --policy all --fault-init-p 0.05 --fault-crash 2@120:60
#include <cstring>
#include <iostream>
#include <optional>
#include <sstream>
#include <string_view>

#include "apps/catalog.hpp"
#include "baselines/experiment.hpp"
#include "common/number.hpp"
#include "common/output_file.hpp"
#include "common/table.hpp"
#include "exp/aggregate.hpp"
#include "exp/artifacts.hpp"
#include "exp/config.hpp"
#include "exp/runner.hpp"
#include "exp/serve.hpp"
#include "math/stats.hpp"
#include "serverless/tracing.hpp"
#include "workload/trace_io.hpp"

using namespace smiless;

namespace {

struct CliOptions {
  exp::ExperimentConfig config;  ///< the single-run cell being assembled
  std::string policy = "smiless";  ///< name or "all"
  std::string dump_trace;
  std::string save_config;
  std::string sweep_file;
  std::string out_file;
  std::string csv_file;
  exp::RunnerOptions runner;
  int slow = 0;
  bool serve = false;         ///< `smiless_sim serve ...` subcommand
  double speedup = 1.0;       ///< serve: sim-seconds per wall-second
  std::string stream_out;     ///< serve: live NDJSON event stream path
};

[[noreturn]] void usage(const char* argv0, const std::string& error = "") {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr << "usage: " << argv0
            << " [serve] [--config run.json] [--save-config file] [--app wl1|wl2|wl3|ipa|file.manifest]\n"
               "       serve mode only: [--speedup X] [--stream-out file.ndjson]\n"
               "       [--policy NAME|all] [--duration S] [--trace file.csv] [--sla S]\n"
               "       [--seed N] [--lanes K] [--lane-threads N] [--no-lstm]\n"
               "       [--dump-trace file.csv] [--slow N]\n"
               "       [--sweep grid.json] [--threads N] [--out file.json] [--csv file.csv]\n"
               "       [--progress]\n"
               "       [--trace-out file.json] [--metrics-out file.json]\n"
               "       [--audit-out file.json] [--windows-out file.csv]\n"
               "       [--series-out file.json] [--series-cadence S]\n"
               "       [--report-out file.html] [--profile-out file.json]\n"
               "       [--fault-init-p P] [--fault-straggler-p P] [--fault-straggler-x F]\n"
               "       [--fault-crash M@T:D]... [--fault-crash-rate R] [--fault-mttr S]\n"
               "       [--timeout S] [--max-retries N]\n";
  std::exit(error.empty() ? 0 : 2);
}

/// Parse the whole of `text` as one T (common::parse_number), or exit 2
/// naming `what` (the flag): `error: --seed: expected an integer, got "abc"`.
template <class T>
T parse_number(const char* argv0, std::string_view what, std::string_view text) {
  T value{};
  const std::string error = common::parse_number(text, value);
  if (!error.empty()) usage(argv0, std::string(what) + ": " + error);
  return value;
}

/// Parse a "--fault-crash M@T:D" operand (duration optional, default 60 s).
faults::ScheduledCrash parse_crash(const char* argv0, const std::string& s) {
  faults::ScheduledCrash c;
  c.duration = 60.0;
  const auto at = s.find('@');
  if (at == std::string::npos) usage(argv0, "--fault-crash wants M@T[:D], got " + s);
  const std::string_view operand(s);
  c.machine = parse_number<int>(argv0, "--fault-crash machine", operand.substr(0, at));
  const auto colon = s.find(':', at);
  c.at = parse_number<double>(argv0, "--fault-crash time",
                              operand.substr(at + 1, colon - at - 1));
  if (colon != std::string::npos)
    c.duration =
        parse_number<double>(argv0, "--fault-crash duration", operand.substr(colon + 1));
  return c;
}

CliOptions parse_cli(int argc, char** argv) {
  CliOptions o;
  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage(argv[0], std::string("missing value for ") + argv[i]);
    return argv[++i];
  };
  // Read the value of flag argv[i] into `out`, whole, as out's type (see
  // parse_number).
  auto read = [&]<class T>(int& i, T& out) {
    const char* flag = argv[i];
    out = parse_number<T>(argv[0], flag, need_value(i));
  };
  // --config seeds the cell; every later flag overrides one field of it.
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--config")) {
      const char* path = need_value(i);
      try {
        o.config = exp::ExperimentConfig::from_json(json::load_file(path));
      } catch (const std::exception& e) {
        usage(argv[0], e.what());
      }
      o.policy = o.config.policy;
    }
  }
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (i == 1 && !std::strcmp(arg, "serve")) o.serve = true;
    else if (!std::strcmp(arg, "--config")) { ++i; }  // handled above
    else if (!std::strcmp(arg, "--save-config")) o.save_config = need_value(i);
    else if (!std::strcmp(arg, "--app")) o.config.app = need_value(i);
    else if (!std::strcmp(arg, "--policy")) o.policy = need_value(i);
    else if (!std::strcmp(arg, "--trace")) {
      o.config.trace.kind = "csv";
      o.config.trace.file = need_value(i);
    }
    else if (!std::strcmp(arg, "--dump-trace")) o.dump_trace = need_value(i);
    else if (!std::strcmp(arg, "--duration")) read(i, o.config.trace.duration);
    else if (!std::strcmp(arg, "--sla")) read(i, o.config.sla);
    else if (!std::strcmp(arg, "--seed")) {
      read(i, o.config.seed);
      o.config.trace.seed = o.config.seed;
    }
    else if (!std::strcmp(arg, "--lanes")) {
      read(i, o.config.lanes);
      if (o.config.lanes < 1) usage(argv[0], "--lanes must be >= 1");
    }
    else if (!std::strcmp(arg, "--lane-threads")) {
      read(i, o.runner.lane_threads);
      if (o.runner.lane_threads < 0) usage(argv[0], "--lane-threads must be >= 0");
    }
    else if (!std::strcmp(arg, "--no-lstm")) o.config.use_lstm = false;
    else if (!std::strcmp(arg, "--speedup")) {
      read(i, o.speedup);
      if (o.speedup <= 0.0) usage(argv[0], "--speedup must be positive");
    }
    else if (!std::strcmp(arg, "--stream-out")) o.stream_out = need_value(i);
    else if (!std::strcmp(arg, "--slow")) read(i, o.slow);
    else if (!std::strcmp(arg, "--sweep")) o.sweep_file = need_value(i);
    else if (!std::strcmp(arg, "--threads")) {
      read(i, o.runner.threads);
      if (o.runner.threads < 1) usage(argv[0], "--threads must be >= 1");
    }
    else if (!std::strcmp(arg, "--out")) o.out_file = need_value(i);
    else if (!std::strcmp(arg, "--csv")) o.csv_file = need_value(i);
    else if (!std::strcmp(arg, "--progress")) o.runner.progress = true;
    else if (!std::strcmp(arg, "--trace-out")) o.config.obs.trace_out = need_value(i);
    else if (!std::strcmp(arg, "--metrics-out")) o.config.obs.metrics_out = need_value(i);
    else if (!std::strcmp(arg, "--audit-out")) o.config.obs.audit_out = need_value(i);
    else if (!std::strcmp(arg, "--windows-out")) o.config.obs.windows_out = need_value(i);
    else if (!std::strcmp(arg, "--series-out")) o.config.obs.series_out = need_value(i);
    else if (!std::strcmp(arg, "--series-cadence")) {
      read(i, o.config.obs.series_cadence);
      if (o.config.obs.series_cadence <= 0.0)
        usage(argv[0], "--series-cadence must be positive");
    }
    else if (!std::strcmp(arg, "--report-out")) o.config.obs.report_out = need_value(i);
    else if (!std::strcmp(arg, "--profile-out")) o.config.obs.profile_out = need_value(i);
    else if (!std::strcmp(arg, "--fault-init-p"))
      read(i, o.config.faults.init_failure_prob);
    else if (!std::strcmp(arg, "--fault-straggler-p"))
      read(i, o.config.faults.straggler_prob);
    else if (!std::strcmp(arg, "--fault-straggler-x"))
      read(i, o.config.faults.straggler_factor);
    else if (!std::strcmp(arg, "--fault-crash"))
      o.config.faults.crashes.push_back(parse_crash(argv[0], need_value(i)));
    else if (!std::strcmp(arg, "--fault-crash-rate"))
      read(i, o.config.faults.crash_rate);
    else if (!std::strcmp(arg, "--fault-mttr"))
      read(i, o.config.faults.mttr);
    else if (!std::strcmp(arg, "--timeout"))
      read(i, o.config.platform.request_timeout);
    else if (!std::strcmp(arg, "--max-retries"))
      read(i, o.config.platform.max_retries);
    else if (!std::strcmp(arg, "--help") || !std::strcmp(arg, "-h")) usage(argv[0]);
    else usage(argv[0], std::string("unknown option ") + arg);
  }
  if (o.config.trace.duration <= 0.0) usage(argv[0], "--duration must be positive");
  if (o.config.sla <= 0.0) usage(argv[0], "--sla must be positive");
  if (o.config.platform.request_timeout <= 0.0) usage(argv[0], "--timeout must be positive");
  if (!o.serve && (o.speedup != 1.0 || !o.stream_out.empty()))
    usage(argv[0], "--speedup/--stream-out only apply to the serve subcommand");
  o.config.policy = o.policy == "all" ? "smiless" : o.policy;
  return o;
}

std::vector<std::string> resolve_policies(const char* argv0, const std::string& name) {
  if (name == "all")
    return {"smiless", "grandslam", "icebreaker", "orion", "aquatope", "opt"};
  if (!baselines::parse_policy_kind(name)) {
    std::cerr << "error: unknown policy '" << name << "'\n";
    std::exit(2);
  }
  (void)argv0;
  return {name};
}

/// The single-run stdout preamble, shared by the DES path and `serve` so
/// the CI serve smoke can diff the two stdouts byte-for-byte.
void print_run_header(const apps::App& app, const workload::Trace& trace) {
  std::cout << "app: " << app.name << " (" << app.dag.size() << " functions, SLA " << app.sla
            << " s), trace: " << trace.total_invocations() << " requests over "
            << trace.counts.size() << " s\n\n";
}

/// The single-run summary table, shared by the DES path and `serve`.
void print_summary_table(const std::vector<exp::CellResult>& cells, bool with_faults) {
  std::vector<std::string> headers = {"policy",     "cost ($)",  "p50 E2E (s)",
                                      "p99 E2E (s)", "violations", "inits",
                                      "cpu core-s", "gpu pct-s"};
  if (with_faults) {
    headers.insert(headers.end(), {"goodput", "failed", "retries", "evictions", "timeouts"});
  }
  TextTable table(headers);
  for (const auto& cell : cells) {
    const auto& r = cell.result;
    std::vector<std::string> row = {
        r.policy, TextTable::num(r.cost, 4),
        TextTable::num(math::tail_latency(r.e2e, 50), 2),
        TextTable::num(math::tail_latency(r.e2e, 99), 2),
        TextTable::num(100 * r.violation_ratio, 1) + "%", std::to_string(r.initializations),
        TextTable::num(r.cpu_core_seconds, 0), TextTable::num(r.gpu_pct_seconds, 0)};
    if (with_faults) {
      row.insert(row.end(),
                 {TextTable::num(100 * r.goodput(), 1) + "%", std::to_string(r.failed),
                  std::to_string(r.retries), std::to_string(r.evictions),
                  std::to_string(r.timeouts)});
    }
    table.add_row(row);
  }
  table.print();
}

/// `smiless_sim serve`: one cell, live. Stdout is byte-identical to the DES
/// single-run of the same config (the smoke test diffs them); everything
/// wall-derived goes to stderr.
int run_serve(const CliOptions& cli) {
  if (cli.policy == "all") {
    std::cerr << "error: serve drives one policy at a time (got --policy all)\n";
    return 2;
  }
  if (!baselines::parse_policy_kind(cli.policy)) {
    std::cerr << "error: unknown policy '" << cli.policy << "'\n";
    return 2;
  }
  exp::ExperimentConfig cfg = cli.config;
  cfg.policy = cli.policy;

  const apps::App app = exp::resolve_app(cfg);
  const workload::Trace trace = exp::build_trace(cfg, app);
  print_run_header(app, trace);

  std::optional<OutputFile> stream_file;
  exp::ServeOptions sopt;
  sopt.speedup = cli.speedup;
  if (!cli.stream_out.empty()) sopt.stream = &stream_file.emplace(cli.stream_out).stream();

  exp::Runner runner(cli.runner);
  const exp::ServeReport report =
      exp::serve(cfg, runner.profiles(cfg.profile_seed), runner.policy_pool(), sopt);
  if (stream_file) stream_file->close();
  if (cfg.obs.any()) exp::write_artifacts({report.cell}, cfg.obs);
  print_summary_table({report.cell}, cfg.faults.any());

  std::cerr << "[serve] clock=wall speedup=" << TextTable::num(report.speedup, 0)
            << " wall=" << TextTable::num(report.wall_seconds, 2)
            << " s max_lag=" << TextTable::num(report.max_lag_seconds, 3)
            << " s batches=" << report.batches
            << " arrivals=" << report.cell.result.submitted;
  if (!cli.stream_out.empty())
    std::cerr << " stream_lines=" << report.stream_lines << " -> " << cli.stream_out;
  std::cerr << "\n";
  return 0;
}

int run_sweep(const CliOptions& cli) {
  exp::ExperimentGrid grid = exp::ExperimentGrid::load(cli.sweep_file);
  // CLI observability flags overlay the grid's base config field-by-field,
  // so a grid file can name defaults and the command line can add to them.
  if (!cli.config.obs.trace_out.empty()) grid.base.obs.trace_out = cli.config.obs.trace_out;
  if (!cli.config.obs.metrics_out.empty())
    grid.base.obs.metrics_out = cli.config.obs.metrics_out;
  if (!cli.config.obs.audit_out.empty()) grid.base.obs.audit_out = cli.config.obs.audit_out;
  if (!cli.config.obs.windows_out.empty())
    grid.base.obs.windows_out = cli.config.obs.windows_out;
  if (!cli.config.obs.series_out.empty()) grid.base.obs.series_out = cli.config.obs.series_out;
  if (!cli.config.obs.report_out.empty()) grid.base.obs.report_out = cli.config.obs.report_out;
  if (!cli.config.obs.profile_out.empty())
    grid.base.obs.profile_out = cli.config.obs.profile_out;
  if (cli.config.obs.series_cadence != 1.0)
    grid.base.obs.series_cadence = cli.config.obs.series_cadence;
  const auto cells_cfg = grid.expand();
  std::cerr << "[exp] sweep " << cli.sweep_file << ": " << cells_cfg.size() << " cells, "
            << (cli.runner.threads == 0 ? std::string("hw") : std::to_string(cli.runner.threads))
            << " threads\n";
  exp::Runner runner(cli.runner);
  // detlint:allow(wall-clock) sweep wall time is reported to stderr, not serialized
  const auto t0 = std::chrono::steady_clock::now();
  const auto cells = runner.run(cells_cfg);
  const double wall =  // detlint:allow(wall-clock) same quarantine: stderr report only
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  std::cerr << "[exp] sweep finished in " << TextTable::num(wall, 2) << " s\n";

  if (grid.base.obs.any()) {
    exp::write_artifacts(cells, grid.base.obs);
    if (!grid.base.obs.trace_out.empty())
      std::cerr << "[obs] wrote " << grid.base.obs.trace_out << "\n";
    if (!grid.base.obs.metrics_out.empty())
      std::cerr << "[obs] wrote " << grid.base.obs.metrics_out << "\n";
    if (!grid.base.obs.audit_out.empty())
      std::cerr << "[obs] wrote " << grid.base.obs.audit_out << "\n";
    if (!grid.base.obs.windows_out.empty())
      std::cerr << "[obs] wrote " << grid.base.obs.windows_out << "\n";
    if (!grid.base.obs.series_out.empty())
      std::cerr << "[obs] wrote " << grid.base.obs.series_out << "\n";
    if (!grid.base.obs.report_out.empty())
      std::cerr << "[obs] wrote " << grid.base.obs.report_out << "\n";
    if (!grid.base.obs.profile_out.empty())
      std::cerr << "[obs] wrote " << grid.base.obs.profile_out << "\n";
  }

  const auto aggregates = exp::aggregate(cells);
  if (!cli.out_file.empty()) {
    json::save_file(exp::summary_json(cells, aggregates), cli.out_file);
    std::cerr << "[exp] wrote " << cli.out_file << "\n";
  }
  if (!cli.csv_file.empty()) {
    OutputFile csv(cli.csv_file);
    csv.stream() << exp::summary_csv(aggregates);
    csv.close();
    std::cerr << "[exp] wrote " << cli.csv_file << "\n";
  }
  if (cli.out_file.empty()) {
    TextTable table({"label", "policy", "app", "sla", "runs", "cost ($)", "+-95%",
                     "violations", "p99 E2E (s)", "goodput"});
    for (const auto& a : aggregates)
      table.add_row({a.label, a.policy, a.app, TextTable::num(a.sla, 2),
                     std::to_string(a.replicates), TextTable::num(a.cost.mean, 4),
                     TextTable::num(a.cost.ci95, 4),
                     TextTable::num(100 * a.violation_ratio.mean, 1) + "%",
                     TextTable::num(a.e2e_p99, 2),
                     TextTable::num(100 * a.goodput.mean, 1) + "%"});
    table.print();
  }
  return 0;
}

/// Everything after flag parsing: --save-config, a sweep, `serve` or a
/// single run.
int run(const CliOptions& cli, const char* argv0) {
  if (!cli.save_config.empty()) {
    json::save_file(cli.config.to_json(), cli.save_config);
    std::cout << "Wrote config to " << cli.save_config << "\n";
    return 0;
  }
  if (!cli.sweep_file.empty()) return run_sweep(cli);
  if (cli.serve) return run_serve(cli);

  const apps::App app = exp::resolve_app(cli.config);
  const workload::Trace trace = exp::build_trace(cli.config, app);
  if (!cli.dump_trace.empty()) {
    workload::save_csv_file(trace, cli.dump_trace);
    std::cout << "Wrote " << trace.total_invocations() << " arrivals to " << cli.dump_trace
              << "\n";
    return 0;
  }

  print_run_header(app, trace);

  // One cell per requested policy; the runner executes them concurrently.
  std::vector<exp::ExperimentConfig> cells_cfg;
  for (const auto& policy : resolve_policies(argv0, cli.policy)) {
    auto cfg = cli.config;
    cfg.policy = policy;
    cells_cfg.push_back(std::move(cfg));
  }
  // --slow lists requests of the first summarized cell, so that cell keeps
  // its traces (recording them never moves the trajectory).
  if (cli.slow > 0) cells_cfg.front().platform.record_traces = true;
  exp::Runner runner(cli.runner);
  const auto cells = runner.run(cells_cfg);
  if (cli.config.obs.any()) exp::write_artifacts(cells, cli.config.obs);
  print_summary_table(cells, cli.config.faults.any());

  if (cli.slow > 0) {
    auto traces = cells.front().result.traces;
    std::sort(traces.begin(), traces.end(),
              [](const auto& a, const auto& b) { return a.e2e() > b.e2e(); });
    std::cout << "\n=== " << cli.slow << " slowest requests ===\n";
    for (int i = 0; i < cli.slow && i < static_cast<int>(traces.size()); ++i)
      std::cout << serverless::format_trace(traces[i], app.dag);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions cli = parse_cli(argc, argv);
  // One error exit for every run path: input that fails once the run has
  // started (an unknown app, an unreadable or malformed trace, a knob out
  // of range) exits 2 with its message, like a bad flag.
  try {
    return run(cli, argv[0]);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
