#include "svc/request_stream.hpp"

#include <cstdint>
#include <fstream>
#include <istream>
#include <sstream>
#include <string>
#include <utility>

#include "io/csv.hpp"
#include "io/parse.hpp"
#include "obs/report.hpp"

namespace strt::svc {

namespace {

std::string at(std::size_t lineno) {
  return lineno == 0 ? std::string("request")
                     : "line " + std::to_string(lineno);
}

/// Re-adds `found` under a request-relative location ("line 7 task 1:
/// line 2"), keeping severities.
void merge_relocated(check::CheckResult& into, const check::CheckResult& found,
                     const std::string& where) {
  for (const check::Diagnostic& d : found.diagnostics()) {
    std::string loc = where;
    if (!d.location.empty()) loc += ": " + d.location;
    into.add(d.severity, d.code, std::move(loc), d.message);
  }
}

/// Parses one task text into `out.tasks`; on parse failure the inner
/// diagnostics are folded into `out_diags` (fatally).  Semantic findings
/// on a *built* task are dropped: run_request()'s validate front gate
/// re-derives them, and duplicating them here would double-report.
bool add_task_text(AnalysisRequest& req, check::CheckResult& diags,
                   std::string_view text, const std::string& where) {
  ParseResult parsed = parse_task_checked(text);
  if (!parsed.task) {
    merge_relocated(diags, parsed.diagnostics, where);
    return false;
  }
  req.tasks.push_back(*std::move(parsed.task));
  return true;
}

bool apply_supply_text(AnalysisRequest& req, check::CheckResult& diags,
                       std::string_view text, const std::string& where) {
  SupplyParseResult parsed = parse_supply_checked(text);
  if (!parsed.supply) {
    merge_relocated(diags, parsed.diagnostics, where);
    return false;
  }
  req.supply = *std::move(parsed.supply);
  return true;
}

bool apply_kind_name(AnalysisRequest& req, check::CheckResult& diags,
                     std::string_view name, const std::string& where) {
  const std::optional<AnalysisKind> kind = kind_from_name(name);
  if (!kind) {
    diags.add(check::Severity::kError, "req.unknown-kind", where,
              "unknown analysis kind '" + std::string(name) +
                  "' (expected structural, fp, edf, joint_fp, sensitivity, "
                  "or audsley)");
    return false;
  }
  req.kind = *kind;
  return true;
}

void require_tasks(const AnalysisRequest& req, check::CheckResult& diags,
                   const std::string& where) {
  if (req.tasks.empty()) {
    diags.add(check::Severity::kError, "req.missing-task", where,
              "request carries no task description");
  }
}

void bad_field(check::CheckResult& diags, const std::string& where,
               std::string_view field, std::string_view why) {
  diags.add(check::Severity::kError, "req.bad-field",
            where + " field '" + std::string(field) + "'", std::string(why));
}

/// Reads an optional non-negative integer member into `out`; absent
/// members leave `out` untouched.
bool get_u64(const obs::JsonValue& obj, std::string_view key,
             std::uint64_t& out, check::CheckResult& diags,
             const std::string& where) {
  const obs::JsonValue* v = obj.find(key);
  if (!v) return true;
  if (v->kind != obs::JsonValue::Kind::Number || !v->is_integer ||
      v->integer < 0) {
    bad_field(diags, where, key, "expected a non-negative integer");
    return false;
  }
  out = static_cast<std::uint64_t>(v->integer);
  return true;
}

bool get_bool(const obs::JsonValue& obj, std::string_view key, bool& out,
              check::CheckResult& diags, const std::string& where) {
  const obs::JsonValue* v = obj.find(key);
  if (!v) return true;
  if (v->kind != obs::JsonValue::Kind::Bool) {
    bad_field(diags, where, key, "expected a boolean");
    return false;
  }
  out = v->boolean;
  return true;
}

}  // namespace

RequestParse parse_request_json(std::string_view line, std::size_t lineno) {
  RequestParse out;
  const std::string where = at(lineno);

  obs::JsonValue doc;
  try {
    doc = obs::JsonValue::parse(line);
  } catch (const std::exception& e) {
    out.diagnostics.add(check::Severity::kError, "req.bad-field", where,
                        std::string("malformed JSON: ") + e.what());
    return out;
  }
  if (doc.kind != obs::JsonValue::Kind::Object) {
    out.diagnostics.add(check::Severity::kError, "req.bad-field", where,
                        "request line is not a JSON object");
    return out;
  }

  AnalysisRequest req;

  if (const obs::JsonValue* kind = doc.find("kind")) {
    if (kind->kind != obs::JsonValue::Kind::String) {
      bad_field(out.diagnostics, where, "kind", "expected a string");
    } else {
      apply_kind_name(req, out.diagnostics, kind->string, where);
    }
  } else {
    bad_field(out.diagnostics, where, "kind", "required field is absent");
  }

  get_u64(doc, "id", req.id, out.diagnostics, where);

  if (const obs::JsonValue* task = doc.find("task")) {
    if (task->kind != obs::JsonValue::Kind::String) {
      bad_field(out.diagnostics, where, "task", "expected a string");
    } else {
      add_task_text(req, out.diagnostics, task->string, where + " task");
    }
  }
  if (const obs::JsonValue* tasks = doc.find("tasks")) {
    if (tasks->kind != obs::JsonValue::Kind::Array) {
      bad_field(out.diagnostics, where, "tasks",
                "expected an array of strings");
    } else {
      for (std::size_t i = 0; i < tasks->array.size(); ++i) {
        const obs::JsonValue& t = tasks->array[i];
        if (t.kind != obs::JsonValue::Kind::String) {
          bad_field(out.diagnostics, where, "tasks",
                    "expected an array of strings");
          break;
        }
        add_task_text(req, out.diagnostics, t.string,
                      where + " task " + std::to_string(i));
      }
    }
  }
  require_tasks(req, out.diagnostics, where);

  if (const obs::JsonValue* supply = doc.find("supply")) {
    if (supply->kind != obs::JsonValue::Kind::String) {
      bad_field(out.diagnostics, where, "supply", "expected a string");
    } else {
      apply_supply_text(req, out.diagnostics, supply->string,
                        where + " supply");
    }
  }

  std::uint64_t u = 0;
  if (get_u64(doc, "max_states", u, out.diagnostics, where) &&
      doc.find("max_states")) {
    req.common.max_states = static_cast<std::size_t>(u);
  }
  get_u64(doc, "progress_every", req.common.progress_every, out.diagnostics,
          where);
  get_bool(doc, "want_witness", req.want_witness, out.diagnostics, where);
  if (get_u64(doc, "max_paths", u, out.diagnostics, where) &&
      doc.find("max_paths")) {
    req.max_paths = static_cast<std::size_t>(u);
  }
  if (get_u64(doc, "delay_cap", u, out.diagnostics, where) &&
      doc.find("delay_cap")) {
    req.delay_cap = Time{static_cast<std::int64_t>(u)};
  }
  if (get_u64(doc, "max_wcet_growth", u, out.diagnostics, where) &&
      doc.find("max_wcet_growth")) {
    req.max_wcet_growth = Work{static_cast<std::int64_t>(u)};
  }
  if (get_u64(doc, "deadline_ms", u, out.diagnostics, where) &&
      doc.find("deadline_ms")) {
    req.deadline = std::chrono::milliseconds(u);
  }

  if (out.diagnostics.ok()) out.request = std::move(req);
  return out;
}

RequestParse parse_request_csv(std::string_view line, std::size_t lineno,
                               std::string_view task_dir) {
  RequestParse out;
  const std::string where = at(lineno);

  const std::vector<std::string> fields = split_csv_line(line);
  if (fields.size() < 4) {
    out.diagnostics.add(
        check::Severity::kError, "req.bad-field", where,
        "expected id,kind,supply,task_file[,task_file...] (got " +
            std::to_string(fields.size()) + " fields)");
    return out;
  }

  AnalysisRequest req;

  try {
    std::size_t used = 0;
    req.id = std::stoull(fields[0], &used);
    if (used != fields[0].size()) throw std::invalid_argument(fields[0]);
  } catch (const std::exception&) {
    bad_field(out.diagnostics, where, "id",
              "'" + fields[0] + "' is not a non-negative integer");
  }

  apply_kind_name(req, out.diagnostics, fields[1], where);
  apply_supply_text(req, out.diagnostics, fields[2], where + " supply");

  for (std::size_t i = 3; i < fields.size(); ++i) {
    std::string path = fields[i];
    if (!task_dir.empty()) path = std::string(task_dir) + "/" + path;
    std::ifstream in(path);
    if (!in) {
      bad_field(out.diagnostics, where, "task_file",
                "cannot read '" + path + "'");
      continue;
    }
    std::ostringstream text;
    text << in.rdbuf();
    add_task_text(req, out.diagnostics, text.str(), where + " " + path);
  }
  require_tasks(req, out.diagnostics, where);

  if (out.diagnostics.ok()) out.request = std::move(req);
  return out;
}

std::optional<StreamFormat> format_from_name(std::string_view name) {
  if (name == "jsonl") return StreamFormat::kJsonl;
  if (name == "csv") return StreamFormat::kCsv;
  return std::nullopt;
}

std::vector<RequestParse> read_request_stream(std::istream& is,
                                              StreamFormat format,
                                              std::string_view task_dir) {
  std::vector<RequestParse> out;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    out.push_back(format == StreamFormat::kJsonl
                      ? parse_request_json(line, lineno)
                      : parse_request_csv(line, lineno, task_dir));
  }
  return out;
}

}  // namespace strt::svc
