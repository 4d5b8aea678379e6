#include "workload/trace_io.hpp"

#include <cmath>
#include <fstream>
#include <sstream>

#include "common/check.hpp"
#include "common/output_file.hpp"

namespace smiless::workload {

void save_csv(const Trace& trace, std::ostream& os) {
  os << "arrival_s\n";
  os.precision(9);
  for (double a : trace.arrivals) os << a << "\n";
}

Trace load_csv(std::istream& is, double window) {
  SMILESS_CHECK(window > 0.0);
  Trace trace;
  trace.window = window;
  std::string line;
  int line_no = 0;
  double prev = -1.0;
  while (std::getline(is, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    // Trim whitespace.
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    const auto last = line.find_last_not_of(" \t\r");
    line = line.substr(first, last - first + 1);
    if (line == "arrival_s") continue;  // header

    std::istringstream ls(line);
    double t = 0.0;
    SMILESS_CHECK_MSG(static_cast<bool>(ls >> t),
                      "line " << line_no << ": expected a timestamp, got '" << line << "'");
    std::string rest;
    SMILESS_CHECK_MSG(!(ls >> rest), "line " << line_no << ": trailing content '" << rest << "'");
    SMILESS_CHECK_MSG(t >= 0.0, "line " << line_no << ": negative timestamp");
    SMILESS_CHECK_MSG(t >= prev, "line " << line_no << ": timestamps must be non-decreasing");
    prev = t;
    trace.arrivals.push_back(t);
  }

  const double duration = trace.arrivals.empty() ? 0.0 : trace.arrivals.back();
  const auto n = static_cast<std::size_t>(std::floor(duration / window)) + 1;
  trace.counts.assign(trace.arrivals.empty() ? 0 : n, 0);
  for (double a : trace.arrivals) {
    const auto w = static_cast<std::size_t>(a / window);
    if (w < trace.counts.size()) ++trace.counts[w];
  }
  return trace;
}

void save_csv_file(const Trace& trace, const std::string& path) {
  OutputFile file(path);
  save_csv(trace, file.stream());
  file.close();
}

Trace load_csv_file(const std::string& path, double window) {
  std::ifstream is(path);
  SMILESS_CHECK_MSG(is.good(), "cannot open " << path);
  return load_csv(is, window);
}

}  // namespace smiless::workload
