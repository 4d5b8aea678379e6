#pragma once

#include <ostream>

namespace perfbench {

/// The host-speed probe that runs beside the timed repetitions (see
/// perfbench/README.md, "Host-speed adjustment"). Until `seconds` have
/// passed it runs bursts of a fixed pointer chase through its own 16 MiB
/// ring of cache lines, idling after each burst for as long as the burst
/// took, so that it keeps about half of one CPU. It writes one line per
/// burst to `out`: "<start_ns> <end_ns> <ns_per_load>", with the
/// steady-clock times now_ns() reads. It touches nothing of the simulator.
void run_host_probe(std::ostream& out, double seconds);

}  // namespace perfbench
