#pragma once

#include <iosfwd>
#include <string>

#include "workload/trace.hpp"

namespace smiless::workload {

/// Write a trace as CSV: a header line, then one arrival timestamp per line.
/// The format round-trips through load_csv and is easy to produce from real
/// invocation logs (e.g. a rescaled Azure Functions trace).
void save_csv(const Trace& trace, std::ostream& os);

/// Parse the save_csv format (header optional; blank lines and '#' comments
/// skipped). `window` buckets the arrivals into per-window counts. Throws
/// CheckError on non-numeric or non-monotonic timestamps.
Trace load_csv(std::istream& is, double window = 1.0);

/// Convenience file wrappers. save_csv_file throws `cannot write <path>`
/// unless the whole trace reached the file.
void save_csv_file(const Trace& trace, const std::string& path);
Trace load_csv_file(const std::string& path, double window = 1.0);

}  // namespace smiless::workload
