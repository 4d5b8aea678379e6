// detlint — determinism-purity and architecture linter for the SMIless tree.
//
// Pass 1 (archlint, enabled by --layers): parses the project-relative
// #include graph of every scanned TU, checks it against the declarative
// layer manifest in tools/detlint/layers.json, and reports layering
// violations, include cycles and private-header escapes.
//
// Pass 2 (lexical): scans C++ sources for constructs that break the
// DESIGN.md §9/§14 contracts (bit-identical sweeps at any thread or lane
// count, byte-stable artifacts): wall clocks, raw randomness, hash-order
// iteration, pointer-keyed ordering, parallel reductions, environment
// reads, mutable global state, raw time-unit conversion literals.
//
// Exemptions are inline, named and reasoned, so every escape hatch is
// reviewable in the diff that adds it. --json emits a machine-readable
// report; --baseline pins a prior report's findings so new code is held to
// zero while legacy findings are ratcheted down.
//
// Exit status: 0 clean, 1 violations found, 2 usage/IO error.

#include <iostream>
#include <string>
#include <vector>

#include "archlint.hpp"
#include "common/output_file.hpp"
#include "scanner.hpp"

namespace {

void print_usage(std::ostream& os) {
  os << "usage: detlint [options] <path>...\n"
        "  Scans every .cpp/.cc/.cxx/.hpp/.h/.hh under the given paths.\n"
        "options:\n"
        "  --layers <file>      also run the archlint pass (layering, cycles,\n"
        "                       private headers) against this manifest\n"
        "  --json <file>        write a machine-readable report (reusable as a baseline)\n"
        "  --baseline <file>    suppress findings pinned in a prior --json report;\n"
        "                       only findings beyond the baseline fail the run\n"
        "  --exclude <substr>   skip files whose path contains <substr> (repeatable)\n"
        "  --list-rules         print the rule catalog and exit\n"
        "  --allow-unused       do not report allow annotations that suppress nothing\n"
        "  -q, --quiet          print only the final summary line\n"
        "  -h, --help           this text\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> roots;
  detlint::ScanOptions options;
  detlint::LayerManifest manifest;
  std::string json_out, baseline_path, layers_path;
  bool quiet = false;
  const auto value_arg = [&](int& i, const std::string& flag) -> std::string {
    if (i + 1 >= argc) {
      std::cerr << "detlint: " << flag << " needs an argument\n";
      std::exit(2);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-h" || arg == "--help") {
      print_usage(std::cout);
      return 0;
    } else if (arg == "--list-rules") {
      for (const auto& r : detlint::rule_catalog()) {
        std::cout << r.id << "\n    " << r.summary << "\n";
        for (const auto& s : r.exempt_suffixes) std::cout << "    (exempt: " << s << ")\n";
      }
      std::cout << "bad-allow\n    malformed allow annotation (unknown rule or missing reason)\n"
                   "unused-allow\n    allow annotation that suppresses nothing\n";
      return 0;
    } else if (arg == "--layers") {
      layers_path = value_arg(i, arg);
    } else if (arg == "--json") {
      json_out = value_arg(i, arg);
    } else if (arg == "--baseline") {
      baseline_path = value_arg(i, arg);
    } else if (arg == "--exclude") {
      options.exclude_substrings.push_back(value_arg(i, arg));
    } else if (arg == "--allow-unused") {
      options.report_unused_allows = false;
    } else if (arg == "-q" || arg == "--quiet") {
      quiet = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "detlint: unknown option '" << arg << "'\n";
      print_usage(std::cerr);
      return 2;
    } else {
      roots.push_back(arg);
    }
  }
  if (roots.empty()) {
    print_usage(std::cerr);
    return 2;
  }
  std::vector<detlint::Violation> violations;
  detlint::BaselineStats baseline_stats;
  bool baselined = false;
  try {
    if (!layers_path.empty()) {
      manifest = detlint::load_manifest(layers_path);
      options.manifest = &manifest;
    }
    violations = detlint::scan_paths(roots, options);
    if (!baseline_path.empty()) {
      violations =
          detlint::apply_baseline(std::move(violations), detlint::load_baseline(baseline_path),
                                  &baseline_stats);
      baselined = true;
    }
    if (!json_out.empty()) {
      smiless::OutputFile out(json_out, std::ios::out | std::ios::binary);
      out.stream() << detlint::report_json(violations);
      out.close();
    }
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
  if (!quiet)
    for (const auto& v : violations) std::cout << detlint::format_violation(v) << "\n";
  if (baselined && (baseline_stats.suppressed > 0 || baseline_stats.stale > 0)) {
    std::cout << "detlint: baseline absorbed " << baseline_stats.suppressed << " finding"
              << (baseline_stats.suppressed == 1 ? "" : "s");
    if (baseline_stats.stale > 0)
      std::cout << " (" << baseline_stats.stale
                << " baseline entries no longer match — ratchet the baseline down)";
    std::cout << "\n";
  }
  if (violations.empty()) {
    std::cout << "detlint: clean\n";
    return 0;
  }
  std::cout << "detlint: " << violations.size() << " violation"
            << (violations.size() == 1 ? "" : "s") << "\n";
  return 1;
}
