// One repetition of one benchmark workload, in a fresh process so that its
// peak RSS describes only that repetition. perfbench/run.py spawns it; it
// prints one JSON report on stdout (see workloads.hpp).
//
//   perfbench_driver --workload NAME --seed N [--pass timed|traced]
//                    [--scale X] [--workdir DIR]
//   perfbench_driver --host-probe SECONDS
//
// The second form runs the host-speed probe (host_probe.hpp) that run.py
// keeps beside the timed repetitions; it ends after SECONDS, or at once when
// its parent process ends.
//
// Exit codes: 0 report printed, 1 unknown workload or a failed conservation
// check, 2 bad usage.
#include <sys/prctl.h>

#include <csignal>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "host_probe.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench_driver: " << problem
            << "\nusage: perfbench_driver --workload NAME --seed N [--pass timed|traced]"
               " [--scale X] [--workdir DIR]\n"
               "       perfbench_driver --host-probe SECONDS\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::string(argv[1]) == "--host-probe") {
    double seconds = 0.0;
    try {
      seconds = std::stod(argv[2]);
    } catch (const std::logic_error&) {
      // seconds stays 0 and is rejected below
    }
    if (!(seconds > 0.0 && seconds <= 3600.0))
      usage("--host-probe needs seconds in (0, 3600], not " + std::string(argv[2]));
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    perfbench::run_host_probe(std::cout, seconds);
    return 0;
  }
  perfbench::RunArgs args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        std::size_t used = 0;
        args.seed = std::stoull(value, &used);
        if (used != value.size()) usage("--seed must be a whole number");
        have_seed = true;
      } else if (flag == "--pass") {
        if (value != "timed" && value != "traced") usage("--pass must be timed or traced");
        args.pass = value == "traced" ? perfbench::Pass::Traced : perfbench::Pass::Timed;
      } else if (flag == "--scale") {
        std::size_t used = 0;
        args.scale = std::stod(value, &used);
        if (used != value.size() || !(args.scale > 0.0 && args.scale <= 1.0))
          usage("--scale must be in (0, 1]");
      } else if (flag == "--workdir") {
        args.workdir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (!have_seed) usage("--seed is required");

  try {
    std::cout << perfbench::run_workload(args).dump() << "\n";
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
