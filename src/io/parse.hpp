// Plain-text task & supply descriptions.
//
// Task format (one directive per line, '#' comments, blank lines ignored):
//
//     task engine_control
//     vertex A wcet 2 deadline 10
//     vertex B wcet 5 deadline 20
//     edge A B sep 15
//     edge B A sep 30
//
// Supply format (single line):
//
//     dedicated rate 1
//     bounded_delay rate 3/4 delay 10
//     periodic budget 5 period 20
//     tdma slot 5 cycle 20
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "check/diagnostics.hpp"
#include "graph/drt.hpp"
#include "resource/supply.hpp"

namespace strt {

/// Outcome of a diagnostic-collecting parse: the model (absent when
/// errors prevented construction) plus every problem found.  The parser
/// never hands back a partially-built model: `task` is only set once the
/// whole input round-tripped through the strt::check spec pass.
struct ParseResult {
  std::optional<DrtTask> task;
  check::CheckResult diagnostics;
};

/// Parses a task description, collecting *all* syntax, value and spec
/// problems as parse.* / drt.* diagnostics ("line N" locations) instead
/// of stopping at the first.  `task` is set iff there are none.  The
/// parser does not lint the built task: call strt::check::check_task on
/// it for the semantic findings (Workspace::validate does on the request
/// path).
[[nodiscard]] ParseResult parse_task_checked(std::string_view text);

/// Parses a one-line supply description into diagnostics instead of an
/// exception; `supply` is set iff diagnostics.ok().  A malformed
/// description yields one parse.syntax error; a well-formed one whose
/// values are out of range (Supply::invalid_reason) yields one
/// parse.invalid-value error.  Both are located at "supply".
struct SupplyParseResult {
  std::optional<Supply> supply;
  check::CheckResult diagnostics;
};
[[nodiscard]] SupplyParseResult parse_supply_checked(std::string_view text);

/// Parses a task description; throws std::invalid_argument with a
/// line-numbered message on malformed input (the first error of
/// parse_task_checked).
[[nodiscard]] DrtTask parse_task(std::string_view text);

/// Inverse of parse_task (round-trips exactly).
[[nodiscard]] std::string serialize_task(const DrtTask& task);

/// Parses a one-line supply description; throws std::invalid_argument
/// with the error of parse_supply_checked.
[[nodiscard]] Supply parse_supply(std::string_view text);

/// Inverse of parse_supply.
[[nodiscard]] std::string serialize_supply(const Supply& supply);

}  // namespace strt
