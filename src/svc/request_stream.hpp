// strt::svc -- reading AnalysisRequest streams from text.
//
// Two wire formats, both one request per line ('#' comments and blank
// lines ignored), designed for the strt_serve driver but reusable by any
// front end:
//
//   JSONL -- one JSON object per line:
//
//     {"id": 7, "kind": "structural",
//      "task": "task t\nvertex A wcet 2 deadline 10\nedge A A sep 10",
//      "supply": "tdma slot 3 cycle 8",
//      "max_states": 100000, "deadline_ms": 50}
//
//     Multi-task kinds pass "tasks": [<text>, ...] instead of "task"
//     (slot conventions per kind: see svc/api.hpp).  Optional knobs:
//     id, supply, max_states, progress_every, want_witness, max_paths,
//     delay_cap, max_wcet_growth, deadline_ms.  Unknown keys are
//     ignored.
//
//   CSV -- `id,kind,supply,task_file[,task_file...]` per line; task
//     files are read relative to `task_dir` and hold the plain-text task
//     format of io/parse.hpp.  Fields follow csv_escape() quoting.
//
// Parsing collects req.* / parse.* / drt.* spec diagnostics instead of
// throwing; `request` is set iff the line round-tripped without errors.
// Supplies go through parse_supply_checked, which range-checks each
// model before building it, so a bad supply is a diagnostic, never an
// exception.  Tasks are not linted here: the run_request() validate
// front gate runs check_task once per task, memoized by fingerprint and
// names.
#pragma once

#include <iosfwd>
#include <optional>
#include <string_view>
#include <vector>

#include "check/diagnostics.hpp"
#include "svc/api.hpp"

namespace strt::svc {

/// Outcome of parsing one request line.
struct RequestParse {
  std::optional<AnalysisRequest> request;  // set iff diagnostics.ok()
  check::CheckResult diagnostics;
};

/// Parses one JSONL request line.  `lineno` (1-based; 0 = unknown) seeds
/// the diagnostic locations ("line 7: ...").
[[nodiscard]] RequestParse parse_request_json(std::string_view line,
                                              std::size_t lineno = 0);

/// Parses one CSV request line; task-file paths resolve under `task_dir`
/// (empty = the working directory).
[[nodiscard]] RequestParse parse_request_csv(std::string_view line,
                                             std::size_t lineno = 0,
                                             std::string_view task_dir = {});

enum class StreamFormat : std::uint8_t { kJsonl, kCsv };

/// "jsonl" / "csv"; nullopt for anything else.
[[nodiscard]] std::optional<StreamFormat> format_from_name(
    std::string_view name);

/// Reads a whole request stream: one RequestParse per non-blank,
/// non-comment line, in stream order (malformed lines included, with
/// their diagnostics).
[[nodiscard]] std::vector<RequestParse> read_request_stream(
    std::istream& is, StreamFormat format, std::string_view task_dir = {});

}  // namespace strt::svc
