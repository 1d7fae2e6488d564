// strt-lint: standalone domain linter for structural workload inputs.
//
//   $ ./examples/strt_lint task1.task task2.task
//   $ ./examples/strt_lint --supply "tdma slot 3 cycle 8" system.task
//   $ ./examples/strt_lint --curve points.csv
//   $ ./examples/strt_lint --codes
//
// Every file is parsed with the diagnostic-collecting io layer, linted
// with the strt::check passes, and the findings printed one per line as
//
//     <file>: error[parse.invalid-value] line 2: ...
//
// When several task files are given, cross-task rules (set.overutilized,
// set.duplicate-task) run over the whole set; with --supply the combined
// workload is also gated against that supply (supply.overload) and the
// supply curve itself is linted.  --curve switches the remaining files to
// `time,value` CSV curve samples (curve.negative, curve.non-monotone).
//
// Exit code: 0 clean or warnings only, 1 any error (or any warning with
// --strict), 2 usage/IO problems.  --codes prints the full diagnostic
// registry and exits 0.

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "io/curve_csv.hpp"
#include "io/parse.hpp"

using namespace strt;

namespace {

int print_codes() {
  for (const check::CodeInfo& info : check::all_codes()) {
    std::cout << check::severity_name(info.severity) << '[' << info.code
              << "]: " << info.summary << '\n';
  }
  return 0;
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream file(path);
  if (!file) return false;
  std::ostringstream buffer;
  buffer << file.rdbuf();
  out = buffer.str();
  return true;
}

void print_prefixed(const std::string& prefix, const check::CheckResult& r) {
  for (const check::Diagnostic& d : r.diagnostics()) {
    std::cerr << prefix << ": " << d << '\n';
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool strict = false;
  bool curve_mode = false;
  std::string supply_text;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    if (arg == "--codes") return print_codes();
    if (arg == "--strict") {
      strict = true;
    } else if (arg == "--curve") {
      curve_mode = true;
    } else if (arg == "--supply") {
      if (i + 1 >= argc) {
        std::cerr << "--supply requires a spec string\n";
        return 2;
      }
      supply_text = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown flag '" << arg << "'\n";
      return 2;
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) {
    std::cerr << "usage: strt_lint [--strict] [--curve] "
                 "[--supply \"<spec>\"] <file>... | --codes\n";
    return 2;
  }

  std::size_t errors = 0;
  std::size_t warnings = 0;
  const auto tally = [&](const check::CheckResult& r) {
    errors += r.error_count();
    warnings += r.warning_count();
  };

  std::vector<DrtTask> tasks;
  for (const std::string& path : files) {
    std::string text;
    if (!read_file(path, text)) {
      std::cerr << "cannot open '" << path << "'\n";
      return 2;
    }
    if (curve_mode) {
      const CurveReadResult res = read_curve_points_csv(text);
      print_prefixed(path, res.diagnostics);
      tally(res.diagnostics);
    } else {
      ParseResult res = parse_task_checked(text);
      if (res.task) res.diagnostics.merge(check::check_task(*res.task));
      print_prefixed(path, res.diagnostics);
      tally(res.diagnostics);
      if (res.task) tasks.push_back(std::move(*res.task));
    }
  }

  if (tasks.size() > 1) {
    const check::CheckResult r = check::check_task_set(tasks);
    print_prefixed("task set", r);
    tally(r);
  }
  if (!supply_text.empty()) {
    const SupplyParseResult sup = parse_supply_checked(supply_text);
    print_prefixed("supply", sup.diagnostics);
    tally(sup.diagnostics);
    if (sup.supply && !tasks.empty()) {
      const check::CheckResult sys = check::check_system(tasks, *sup.supply);
      print_prefixed("system", sys);
      tally(sys);
      const check::CheckResult curve =
          check::check_supply_curve(sup.supply->sbf(sup.supply->min_horizon()));
      print_prefixed("supply", curve);
      tally(curve);
    }
  }

  std::cerr << errors << " error(s), " << warnings << " warning(s)\n";
  if (errors > 0 || (strict && warnings > 0)) return 1;
  return 0;
}
