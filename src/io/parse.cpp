#include "io/parse.hpp"

#include <charconv>
#include <map>
#include <span>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "base/assert.hpp"
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

[[noreturn]] void fail(std::size_t line_no, const std::string& msg) {
  std::ostringstream os;
  os << "parse error at line " << line_no << ": " << msg;
  throw std::invalid_argument(os.str());
}

std::optional<std::int64_t> try_parse_int(std::string_view tok) {
  std::int64_t v = 0;
  const auto [p, ec] = std::from_chars(tok.begin(), tok.end(), v);
  if (ec != std::errc{} || p != tok.end()) return std::nullopt;
  return v;
}

std::int64_t parse_int(std::string_view tok, std::size_t line_no) {
  const auto v = try_parse_int(tok);
  if (!v) {
    fail(line_no, "expected an integer, got '" + std::string(tok) + "'");
  }
  return *v;
}

Rational parse_rational(std::string_view tok, std::size_t line_no) {
  const std::size_t slash = tok.find('/');
  if (slash == std::string_view::npos) {
    return Rational(parse_int(tok, line_no));
  }
  return Rational(parse_int(tok.substr(0, slash), line_no),
                  parse_int(tok.substr(slash + 1), line_no));
}

/// Expects tokens of the form  key1 v1 key2 v2 ...  starting at `from`.
std::map<std::string_view, std::string_view> parse_kv(
    const std::vector<std::string_view>& toks, std::size_t from,
    std::size_t line_no) {
  if ((toks.size() - from) % 2 != 0) {
    fail(line_no, "expected key/value pairs");
  }
  std::map<std::string_view, std::string_view> kv;
  for (std::size_t i = from; i < toks.size(); i += 2) {
    kv[toks[i]] = toks[i + 1];
  }
  return kv;
}

std::string_view require_key(
    const std::map<std::string_view, std::string_view>& kv,
    std::string_view key, std::size_t line_no) {
  const auto it = kv.find(key);
  if (it == kv.end()) fail(line_no, "missing '" + std::string(key) + "'");
  return it->second;
}

/// Diagnostic-collecting field lookup + integer parse over the key/value
/// tokens of one directive (`pairs` = key1 v1 key2 v2 ...; a repeated key
/// keeps its last value): emits parse.missing-field / parse.invalid-value
/// and returns `fallback` so the caller can keep scanning the rest of the
/// input.
std::int64_t read_int_field(std::span<const std::string_view> pairs,
                            std::string_view key, const std::string& loc,
                            std::int64_t fallback, check::CheckResult& r) {
  const std::string_view* value = nullptr;
  for (std::size_t i = 0; i + 1 < pairs.size(); i += 2) {
    if (pairs[i] == key) value = &pairs[i + 1];
  }
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
  if (res.task.has_value()) return std::move(*res.task);
  for (const check::Diagnostic& d : res.diagnostics.diagnostics()) {
    if (d.severity == check::Severity::kError) {
      throw std::invalid_argument("parse error at " + d.location + ": " +
                                  d.message);
    }
  }
  throw std::invalid_argument("parse error: task construction failed");
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

Supply parse_supply(std::string_view text) {
  const auto toks = tokenize(text);
  if (toks.empty()) throw std::invalid_argument("empty supply description");
  const auto kv = parse_kv(toks, 1, 1);
  if (toks[0] == "dedicated") {
    return Supply::dedicated(parse_int(require_key(kv, "rate", 1), 1));
  }
  if (toks[0] == "bounded_delay") {
    return Supply::bounded_delay(
        parse_rational(require_key(kv, "rate", 1), 1),
        Time(parse_int(require_key(kv, "delay", 1), 1)));
  }
  if (toks[0] == "periodic") {
    return Supply::periodic(
        Time(parse_int(require_key(kv, "budget", 1), 1)),
        Time(parse_int(require_key(kv, "period", 1), 1)));
  }
  if (toks[0] == "tdma") {
    return Supply::tdma(Time(parse_int(require_key(kv, "slot", 1), 1)),
                        Time(parse_int(require_key(kv, "cycle", 1), 1)));
  }
  if (toks[0] == "schedule") {
    const std::string_view mask = require_key(kv, "mask", 1);
    std::vector<bool> active;
    for (const char c : mask) {
      if (c != '0' && c != '1') {
        throw std::invalid_argument("schedule mask must be 0/1 digits");
      }
      active.push_back(c == '1');
    }
    return Supply::schedule(std::move(active));
  }
  throw std::invalid_argument("unknown supply kind '" + std::string(toks[0]) +
                              "'");
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

SupplyParseResult parse_supply_checked(std::string_view text) {
  SupplyParseResult out;
  try {
    out.supply = parse_supply(text);
  } catch (const std::invalid_argument& e) {
    out.diagnostics.add(check::Severity::kError, "parse.syntax", "supply",
                        e.what());
  }
  return out;
}

}  // namespace strt
