#include "io/parse.hpp"

#include <charconv>
#include <limits>
#include <map>
#include <span>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "check/check.hpp"

namespace strt {

namespace {

std::vector<std::string_view> tokenize(std::string_view line) {
  std::vector<std::string_view> toks;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    if (i >= line.size() || line[i] == '#') break;
    std::size_t j = i;
    while (j < line.size() && line[j] != ' ' && line[j] != '\t' &&
           line[j] != '#') {
      ++j;
    }
    toks.push_back(line.substr(i, j - i));
    i = j;
  }
  return toks;
}

std::optional<std::int64_t> try_parse_int(std::string_view tok) {
  std::int64_t v = 0;
  const auto [p, ec] = std::from_chars(tok.begin(), tok.end(), v);
  if (ec != std::errc{} || p != tok.end()) return std::nullopt;
  return v;
}

/// The value of `key` among the key/value tokens of one directive
/// (`pairs` = key1 v1 key2 v2 ...; a repeated key keeps its last value),
/// or nullptr when absent.
const std::string_view* find_value(std::span<const std::string_view> pairs,
                                   std::string_view key) {
  const std::string_view* value = nullptr;
  for (std::size_t i = 0; i + 1 < pairs.size(); i += 2) {
    if (pairs[i] == key) value = &pairs[i + 1];
  }
  return value;
}

/// Diagnostic-collecting field lookup + integer parse over the key/value
/// tokens of one directive: emits parse.missing-field /
/// parse.invalid-value and returns `fallback` so the caller can keep
/// scanning the rest of the input.
std::int64_t read_int_field(std::span<const std::string_view> pairs,
                            std::string_view key, const std::string& loc,
                            std::int64_t fallback, check::CheckResult& r) {
  const std::string_view* value = find_value(pairs, key);
  if (value == nullptr) {
    std::string msg = "missing '";
    msg.append(key);
    msg += '\'';
    r.add(check::Severity::kError, "parse.missing-field", loc,
          std::move(msg));
    return fallback;
  }
  const auto v = try_parse_int(*value);
  if (!v) {
    std::string msg = "'";
    msg.append(key);
    msg += "' expects an integer, got '";
    msg.append(*value);
    msg += '\'';
    r.add(check::Severity::kError, "parse.invalid-value", loc,
          std::move(msg));
    return fallback;
  }
  return *v;
}

/// Throws std::invalid_argument for the first diagnostic of a parse that
/// built no model (the parsers report errors only, so there is one).
[[noreturn]] void throw_first_error(const check::CheckResult& r) {
  const check::Diagnostic& d = r.diagnostics().at(0);
  throw std::invalid_argument("parse error at " + d.location + ": " +
                              d.message);
}

/// Reads a supply description up to its model.  Records only the first
/// syntax error (parse.syntax) -- later reads then yield empty values --
/// and, for a rational rate, the ranges a Rational cannot be built from
/// (parse.invalid-value).  The model is meaningful iff r.ok() after.
Supply::Model read_supply_model(std::string_view text, check::CheckResult& r) {
  const auto fail = [&r](const char* code, std::string msg) {
    if (r.ok()) r.add(check::Severity::kError, code, "supply", std::move(msg));
    return Supply::Model{};
  };
  const auto toks = tokenize(text);
  if (toks.empty()) return fail("parse.syntax", "empty supply description");
  if (toks.size() % 2 == 0) {
    return fail("parse.syntax",
                "parse error at line 1: expected key/value pairs");
  }
  const auto pairs = std::span(toks).subspan(1);
  const auto field = [&](std::string_view key) -> std::string_view {
    if (const std::string_view* value = find_value(pairs, key)) return *value;
    fail("parse.syntax",
         "parse error at line 1: missing '" + std::string(key) + "'");
    return {};
  };
  const auto number = [&](std::string_view tok) -> std::int64_t {
    if (const auto v = try_parse_int(tok); v || !r.ok()) return v.value_or(0);
    fail("parse.syntax", "parse error at line 1: expected an integer, got '" +
                             std::string(tok) + "'");
    return 0;
  };
  const auto integer = [&](std::string_view key) { return number(field(key)); };
  // Braced initializers read their fields left to right.
  const std::string_view kind = toks[0];
  if (kind == "dedicated") return DedicatedSupply{integer("rate")};
  if (kind == "periodic") {
    return PeriodicSupply{Time(integer("budget")), Time(integer("period"))};
  }
  if (kind == "tdma") {
    return TdmaSupply{Time(integer("slot")), Time(integer("cycle"))};
  }
  if (kind == "bounded_delay") {
    const std::string_view rate = field("rate");  // "n" or "n/d"
    const std::size_t slash = rate.find('/');
    const std::int64_t num = number(rate.substr(0, slash));
    const std::int64_t den =
        slash == std::string_view::npos ? 1 : number(rate.substr(slash + 1));
    const Time delay(integer("delay"));
    if (!r.ok()) return {};
    if (den == 0) {
      return fail("parse.invalid-value",
                  "rational denominator must be non-zero");
    }
    // Rational normalizes signs by negation, which -2^63 does not have.
    constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
    if (num == kMin || den == kMin) {
      return fail("parse.invalid-value",
                  "rational numerator and denominator must exceed -2^63");
    }
    return BoundedDelaySupply{Rational(num, den), delay};
  }
  if (kind == "schedule") {
    std::vector<bool> active;
    for (const char c : field("mask")) {
      if (c != '0' && c != '1') {
        return fail("parse.syntax", "schedule mask must be 0/1 digits");
      }
      active.push_back(c == '1');
    }
    return ScheduleSupply{std::move(active)};
  }
  return fail("parse.syntax",
              "unknown supply kind '" + std::string(kind) + "'");
}

}  // namespace

ParseResult parse_task_checked(std::string_view text) {
  constexpr auto kError = check::Severity::kError;
  ParseResult out;
  check::CheckResult& r = out.diagnostics;
  check::TaskSpec spec;
  bool have_task = false;
  std::map<std::string, std::int32_t, std::less<>> ids;

  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t nl = text.find('\n', pos);
    const std::string_view line =
        text.substr(pos, nl == std::string_view::npos ? nl : nl - pos);
    pos = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    ++line_no;
    const auto toks = tokenize(line);
    if (toks.empty()) continue;
    const std::string loc = "line " + std::to_string(line_no);

    if (toks[0] == "task") {
      if (have_task) {
        r.add(kError, "parse.syntax", loc, "duplicate 'task' directive");
      } else if (toks.size() != 2) {
        r.add(kError, "parse.syntax", loc, "usage: task <name>");
      } else {
        have_task = true;
        spec.name = std::string(toks[1]);
      }
    } else if (toks[0] == "vertex") {
      if (!have_task) {
        r.add(kError, "parse.syntax", loc, "'vertex' before 'task'");
        continue;
      }
      if (toks.size() != 6) {
        r.add(kError, "parse.syntax", loc,
              "usage: vertex <name> wcet <n> deadline <n>");
        continue;
      }
      const auto kv = std::span(toks).subspan(2);
      const std::string name(toks[1]);
      if (ids.contains(name)) {
        r.add(kError, "parse.duplicate-vertex", loc,
              "duplicate vertex " + name);
        continue;
      }
      check::TaskSpec::Vertex v;
      v.name = name;
      v.wcet = read_int_field(kv, "wcet", loc, 1, r);
      v.deadline = read_int_field(kv, "deadline", loc, 1, r);
      ids.emplace(name, static_cast<std::int32_t>(spec.vertices.size()));
      spec.vertices.push_back(std::move(v));
    } else if (toks[0] == "edge") {
      if (!have_task) {
        r.add(kError, "parse.syntax", loc, "'edge' before 'task'");
        continue;
      }
      if (toks.size() != 5) {
        r.add(kError, "parse.syntax", loc, "usage: edge <from> <to> sep <n>");
        continue;
      }
      const auto kv = std::span(toks).subspan(3);
      const auto from = ids.find(toks[1]);
      const auto to = ids.find(toks[2]);
      bool resolved = true;
      if (from == ids.end()) {
        r.add(kError, "parse.unknown-vertex", loc,
              "unknown vertex '" + std::string(toks[1]) + "'");
        resolved = false;
      }
      if (to == ids.end()) {
        r.add(kError, "parse.unknown-vertex", loc,
              "unknown vertex '" + std::string(toks[2]) + "'");
        resolved = false;
      }
      const std::int64_t sep = read_int_field(kv, "sep", loc, 1, r);
      if (resolved) {
        spec.edges.push_back(
            check::TaskSpec::Edge{from->second, to->second, sep});
      }
    } else {
      r.add(kError, "parse.syntax", loc,
            "unknown directive '" + std::string(toks[0]) + "'");
    }
  }

  if (!have_task) {
    r.add(kError, "parse.no-task", "input", "no 'task' directive found");
  }
  if (r.ok()) out.task = check::build_task(spec, r);
  return out;
}

DrtTask parse_task(std::string_view text) {
  ParseResult res = parse_task_checked(text);
  if (!res.task) throw_first_error(res.diagnostics);
  return *std::move(res.task);
}

std::string serialize_task(const DrtTask& task) {
  std::ostringstream os;
  os << "task " << task.name() << '\n';
  for (const DrtVertex& v : task.vertices()) {
    os << "vertex " << v.name << " wcet " << v.wcet.count() << " deadline "
       << v.deadline.count() << '\n';
  }
  for (const DrtEdge& e : task.edges()) {
    os << "edge " << task.vertex(e.from).name << ' '
       << task.vertex(e.to).name << " sep " << e.separation.count() << '\n';
  }
  return os.str();
}

SupplyParseResult parse_supply_checked(std::string_view text) {
  SupplyParseResult out;
  Supply::Model model = read_supply_model(text, out.diagnostics);
  if (!out.diagnostics.ok()) return out;
  if (const char* why = Supply::invalid_reason(model)) {
    out.diagnostics.add(check::Severity::kError, "parse.invalid-value",
                        "supply", why);
  } else {
    out.supply = Supply::of(std::move(model));
  }
  return out;
}

Supply parse_supply(std::string_view text) {
  SupplyParseResult res = parse_supply_checked(text);
  if (!res.supply) throw_first_error(res.diagnostics);
  return *std::move(res.supply);
}

std::string serialize_supply(const Supply& supply) {
  std::ostringstream os;
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, DedicatedSupply>) {
          os << "dedicated rate " << m.rate;
        } else if constexpr (std::is_same_v<T, BoundedDelaySupply>) {
          os << "bounded_delay rate " << m.rate << " delay "
             << m.delay.count();
        } else if constexpr (std::is_same_v<T, PeriodicSupply>) {
          os << "periodic budget " << m.budget.count() << " period "
             << m.period.count();
        } else if constexpr (std::is_same_v<T, TdmaSupply>) {
          os << "tdma slot " << m.slot.count() << " cycle "
             << m.cycle.count();
        } else {
          os << "schedule mask ";
          for (const bool a : m.active) os << (a ? '1' : '0');
        }
      },
      supply.model());
  return os.str();
}

}  // namespace strt
