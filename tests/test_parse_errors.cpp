// Negative paths of the io layer: malformed task texts, supply specs and
// curve CSVs must come back as diagnostics with line-accurate locations
// and *no partial model* -- never as a half-built task.

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "check/check.hpp"
#include "io/curve_csv.hpp"
#include "io/parse.hpp"

namespace strt {
namespace {

bool any_location_contains(const check::CheckResult& r,
                           std::string_view needle) {
  for (const check::Diagnostic& d : r.diagnostics()) {
    if (d.location.find(needle) != std::string::npos) return true;
  }
  return false;
}

TEST(ParseErrors, UnknownDirectiveIsSyntaxErrorWithLine) {
  const ParseResult res = parse_task_checked("task t\nfrobnicate A\n");
  EXPECT_FALSE(res.task.has_value());
  EXPECT_EQ(res.diagnostics.count("parse.syntax"), 1u);
  EXPECT_TRUE(any_location_contains(res.diagnostics, "line 2"));
}

TEST(ParseErrors, MissingFieldNamesTheField) {
  const ParseResult res =
      parse_task_checked("task t\nvertex A wcet 1 deadlin 1\n");
  EXPECT_FALSE(res.task.has_value());
  ASSERT_EQ(res.diagnostics.count("parse.missing-field"), 1u);
  for (const check::Diagnostic& d : res.diagnostics.diagnostics()) {
    if (d.code == "parse.missing-field") {
      EXPECT_NE(d.message.find("deadline"), std::string::npos);
      EXPECT_EQ(d.location, "line 2");
    }
  }
}

TEST(ParseErrors, NonIntegerValue) {
  const ParseResult res =
      parse_task_checked("task t\nvertex A wcet fast deadline 10\n");
  EXPECT_FALSE(res.task.has_value());
  EXPECT_EQ(res.diagnostics.count("parse.invalid-value"), 1u);
}

TEST(ParseErrors, CollectsEveryProblemInOnePass) {
  // Three independent defects on three lines -- a throwing parser would
  // stop at the first; the checked parser must report all of them.
  const ParseResult res = parse_task_checked(
      "task t\n"
      "vertex A wcet x deadline 5\n"
      "vertex A wcet 1 deadline 5\n"
      "edge A Z sep 3\n");
  EXPECT_FALSE(res.task.has_value());
  EXPECT_TRUE(res.diagnostics.has("parse.invalid-value"));
  EXPECT_TRUE(res.diagnostics.has("parse.duplicate-vertex"));
  EXPECT_TRUE(res.diagnostics.has("parse.unknown-vertex"));
  EXPECT_TRUE(any_location_contains(res.diagnostics, "line 2"));
  EXPECT_TRUE(any_location_contains(res.diagnostics, "line 3"));
  EXPECT_TRUE(any_location_contains(res.diagnostics, "line 4"));
}

TEST(ParseErrors, EdgeAndVertexBeforeTask) {
  const ParseResult res =
      parse_task_checked("vertex A wcet 1 deadline 1\nedge A A sep 1\n");
  EXPECT_FALSE(res.task.has_value());
  // Both misplaced directives plus the missing 'task' itself.
  EXPECT_EQ(res.diagnostics.count("parse.syntax"), 2u);
  EXPECT_TRUE(res.diagnostics.has("parse.no-task"));
}

TEST(ParseErrors, SpecLevelDefectsSurfaceAsDiagnostics) {
  // Values parse fine; the model is structurally invalid.  DrtBuilder
  // would throw -- the checked parser reports and returns no task.
  const ParseResult res = parse_task_checked(
      "task t\n"
      "vertex A wcet 0 deadline -2\n"
      "vertex B wcet 1 deadline 1\n"
      "edge A B sep 0\n");
  EXPECT_FALSE(res.task.has_value());
  EXPECT_TRUE(res.diagnostics.has("drt.nonpositive-wcet"));
  EXPECT_TRUE(res.diagnostics.has("drt.nonpositive-deadline"));
  EXPECT_TRUE(res.diagnostics.has("drt.nonpositive-separation"));
}

TEST(ParseErrors, SemanticWarningsStillYieldATask) {
  // Dead-end vertex: analyzable, so the task is returned.  The parser
  // does not lint; check_task on the built task finds the warning.
  const ParseResult res = parse_task_checked(
      "task t\n"
      "vertex A wcet 1 deadline 2\n"
      "vertex B wcet 1 deadline 2\n"
      "edge A A sep 4\n"
      "edge A B sep 2\n");
  ASSERT_TRUE(res.task.has_value());
  EXPECT_TRUE(res.diagnostics.clean());
  const check::CheckResult lint = check::check_task(*res.task);
  EXPECT_TRUE(lint.ok());
  EXPECT_TRUE(lint.has("drt.dead-end"));
}

TEST(ParseErrors, ThrowingWrapperStillReportsFirstErrorLine) {
  try {
    (void)parse_task("task t\nvertex A wcet ? deadline 1\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(ParseErrors, SupplyCheckedCollectsInsteadOfThrowing) {
  const SupplyParseResult bad = parse_supply_checked("magic rate 3");
  EXPECT_FALSE(bad.supply.has_value());
  EXPECT_EQ(bad.diagnostics.count("parse.syntax"), 1u);

  const SupplyParseResult good = parse_supply_checked("dedicated rate 2");
  ASSERT_TRUE(good.supply.has_value());
  EXPECT_TRUE(good.diagnostics.clean());
}

struct SupplyCase {
  const char* text;
  const char* code;
  const char* message;
};

void expect_one_supply_error(const SupplyCase& c) {
  const SupplyParseResult res = parse_supply_checked(c.text);
  EXPECT_FALSE(res.supply.has_value()) << c.text;
  ASSERT_EQ(res.diagnostics.diagnostics().size(), 1u) << c.text;
  const check::Diagnostic& d = res.diagnostics.diagnostics().front();
  EXPECT_EQ(d.severity, check::Severity::kError) << c.text;
  EXPECT_EQ(d.code, c.code) << c.text;
  EXPECT_EQ(d.location, "supply") << c.text;
  EXPECT_EQ(d.message, c.message) << c.text;
}

TEST(ParseErrors, SupplySyntaxErrorsKeepCodeLocationAndText) {
  // One input per syntax-error class of the supply grammar.
  const SupplyCase cases[] = {
      {"", "parse.syntax", "empty supply description"},
      {"magic rate 3", "parse.syntax", "unknown supply kind 'magic'"},
      {"tdma slot 5 cycle", "parse.syntax",
       "parse error at line 1: expected key/value pairs"},
      {"tdma slot 5 period 20", "parse.syntax",
       "parse error at line 1: missing 'cycle'"},
      {"dedicated rate fast", "parse.syntax",
       "parse error at line 1: expected an integer, got 'fast'"},
      {"bounded_delay rate 3/x delay 10", "parse.syntax",
       "parse error at line 1: expected an integer, got 'x'"},
      {"schedule mask 01x1", "parse.syntax",
       "schedule mask must be 0/1 digits"},
  };
  for (const SupplyCase& c : cases) expect_one_supply_error(c);
}

TEST(ParseErrors, SupplyRangeErrorsAreStableInvalidValues) {
  // Out-of-range values are reported with the model's own reason, never
  // with a source path or line of the library.
  const SupplyCase cases[] = {
      {"dedicated rate 0", "parse.invalid-value",
       "dedicated rate must be >= 1"},
      {"bounded_delay rate 1/0 delay 3", "parse.invalid-value",
       "rational denominator must be non-zero"},
      {"bounded_delay rate -1/2 delay 3", "parse.invalid-value",
       "bounded-delay rate must be positive"},
      {"bounded_delay rate 1/2 delay -1", "parse.invalid-value",
       "bounded-delay latency must be >= 0"},
      {"bounded_delay rate 1/-9223372036854775808 delay 0",
       "parse.invalid-value",
       "rational numerator and denominator must exceed -2^63"},
      {"periodic budget 0 period 5", "parse.invalid-value",
       "budget must be >= 1"},
      {"periodic budget 6 period 5", "parse.invalid-value",
       "budget must fit in the period"},
      {"tdma slot 0 cycle 35", "parse.invalid-value", "slot must be >= 1"},
      {"tdma slot 40 cycle 35", "parse.invalid-value",
       "slot must fit in the cycle"},
      {"schedule mask 0000", "parse.invalid-value",
       "schedule must have an active tick"},
  };
  for (const SupplyCase& c : cases) {
    expect_one_supply_error(c);
    const std::string msg =
        parse_supply_checked(c.text).diagnostics.diagnostics().front().message;
    EXPECT_EQ(msg.find('/'), std::string::npos) << msg;
    EXPECT_EQ(msg.find(".cpp"), std::string::npos) << msg;
  }
}

TEST(CurveCsvErrors, WrongColumnCount) {
  const CurveReadResult res = read_curve_points_csv("1,2\n3,4,5\n");
  EXPECT_TRUE(res.points.empty());
  EXPECT_EQ(res.diagnostics.count("parse.syntax"), 1u);
  EXPECT_TRUE(any_location_contains(res.diagnostics, "line 2"));
}

TEST(CurveCsvErrors, NonNumericCellAfterData) {
  // A non-numeric first line is a header and is skipped; a later one is
  // an error.
  const CurveReadResult res =
      read_curve_points_csv("time,value\n1,2\nx,9\n");
  EXPECT_TRUE(res.points.empty());
  EXPECT_EQ(res.diagnostics.count("parse.invalid-value"), 1u);
  EXPECT_TRUE(any_location_contains(res.diagnostics, "line 3"));
}

TEST(CurveCsvErrors, LintsWellFormedSamples) {
  const CurveReadResult res = read_curve_points_csv("1,5\n2,3\n");
  EXPECT_TRUE(res.points.empty());  // not ok() => no partial samples
  EXPECT_TRUE(res.diagnostics.has("curve.non-monotone"));
}

TEST(CurveCsvErrors, CleanInputParsesWithCommentsAndHeader) {
  const CurveReadResult res = read_curve_points_csv(
      "time,value\n# measured on rig 3\n\n1,2\n4, 7\n");
  EXPECT_TRUE(res.diagnostics.clean());
  ASSERT_EQ(res.points.size(), 2u);
  EXPECT_EQ(res.points[0], (Step{Time(1), Work(2)}));
  EXPECT_EQ(res.points[1], (Step{Time(4), Work(7)}));
}

}  // namespace
}  // namespace strt
