#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "base/mutex.hpp"
#include "base/thread_annotations.hpp"
#include "obs/report.hpp"

namespace strt::obs {

namespace {

std::chrono::steady_clock::time_point trace_epoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

std::uint64_t next_trace_id() {
  // Distinct, stable ids without consulting a wall clock or RNG: a
  // splitmix64-style scramble of a process-wide sequence number, kept in
  // 63 bits so the id is representable as a JSON integer everywhere.
  static std::atomic<std::uint64_t> seq{0};
  std::uint64_t z = seq.fetch_add(1, std::memory_order_relaxed) +
                    0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z = (z ^ (z >> 31)) & 0x7FFFFFFFFFFFFFFFULL;
  return z == 0 ? 1 : z;
}

}  // namespace

std::int64_t trace_now_us() {
  return trace_time_us(std::chrono::steady_clock::now());
}

std::int64_t trace_time_us(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             t - trace_epoch())
      .count();
}

struct TraceContext::Data {
  mutable Mutex mu;
  std::uint64_t trace_id = 0;
  std::vector<TraceSpanRecord> spans STRT_GUARDED_BY(mu);

  std::uint64_t append(TraceSpanRecord rec) {
    const MutexLock lock(mu);
    rec.id = spans.size() + 1;
    spans.push_back(std::move(rec));
    return spans.back().id;
  }

  TraceSpanRecord* find_open(std::uint64_t id) STRT_REQUIRES(mu) {
    // Ids are append positions, so the record sits at index id - 1.
    if (id == 0 || id > spans.size()) return nullptr;
    return &spans[id - 1];
  }
};

// ---------------------------------------------------------------------------
// RequestTrace
// ---------------------------------------------------------------------------

void RequestTrace::sort_spans() {
  std::stable_sort(spans.begin(), spans.end(),
                   [](const TraceSpanRecord& a, const TraceSpanRecord& b) {
                     if (a.start_us != b.start_us) {
                       return a.start_us < b.start_us;
                     }
                     return a.id < b.id;
                   });
}

const TraceSpanRecord* RequestTrace::find(std::string_view name) const {
  for (const TraceSpanRecord& s : spans) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// TraceContext
// ---------------------------------------------------------------------------

TraceContext TraceContext::make() {
  TraceContext ctx;
  ctx.data_ = std::make_shared<Data>();
  ctx.data_->trace_id = next_trace_id();
  return ctx;
}

std::uint64_t TraceContext::trace_id() const {
  return data_ ? data_->trace_id : 0;
}

std::uint64_t TraceContext::add_complete_span(
    std::string_view name, std::int64_t start_us, std::int64_t end_us,
    std::uint64_t parent,
    std::vector<std::pair<std::string, std::string>> attrs) {
  if (!data_) return 0;
  return data_->append({.parent = parent,
                        .name = std::string(name),
                        .start_us = start_us,
                        .dur_us = end_us >= start_us ? end_us - start_us : 0,
                        .attrs = std::move(attrs)});
}

bool TraceContext::has_span(std::string_view name) const {
  if (!data_) return false;
  const MutexLock lock(data_->mu);
  for (const TraceSpanRecord& s : data_->spans) {
    if (s.name == name) return true;
  }
  return false;
}

RequestTrace TraceContext::snapshot() const& {
  RequestTrace out;
  if (!data_) return out;
  {
    const MutexLock lock(data_->mu);
    out.trace_id = data_->trace_id;
    out.spans = data_->spans;
  }
  out.sort_spans();
  return out;
}

RequestTrace TraceContext::snapshot() && {
  if (data_.use_count() != 1) return snapshot();
  RequestTrace out;
  {
    const MutexLock lock(data_->mu);
    out.trace_id = data_->trace_id;
    out.spans = std::move(data_->spans);
  }
  out.sort_spans();
  return out;
}

std::uint64_t TraceContext::open_span(std::string_view name,
                                      std::uint64_t parent,
                                      std::int64_t start_us) const {
  return data_->append({.parent = parent,
                        .name = std::string(name),
                        .start_us = start_us,
                        .dur_us = -1,
                        .attrs = {}});
}

void TraceContext::close_span(std::uint64_t id, std::int64_t end_us) const {
  const MutexLock lock(data_->mu);
  if (TraceSpanRecord* rec = data_->find_open(id)) {
    rec->dur_us = end_us >= rec->start_us ? end_us - rec->start_us : 0;
  }
}

void TraceContext::span_attr(std::uint64_t id, std::string_view key,
                             std::string_view value) const {
  const MutexLock lock(data_->mu);
  if (TraceSpanRecord* rec = data_->find_open(id)) {
    rec->attrs.emplace_back(std::string(key), std::string(value));
  }
}

// ---------------------------------------------------------------------------
// Chrome Trace Event Format (strt.obs.trace.v1)
// ---------------------------------------------------------------------------

std::string trace_to_chrome_json(const std::vector<RequestTrace>& traces) {
  std::string out;
  out += "{\"traceEvents\":[";
  bool first = true;
  std::uint64_t tid = 0;
  for (const RequestTrace& trace : traces) {
    ++tid;
    for (const TraceSpanRecord& s : trace.spans) {
      if (!first) out += ',';
      first = false;
      out += "{\"name\":\"";
      out += json_escape(s.name);
      out += "\",\"cat\":\"strt\",\"ph\":\"X\",\"ts\":";
      out += std::to_string(s.start_us);
      out += ",\"dur\":";
      out += std::to_string(s.dur_us < 0 ? 0 : s.dur_us);
      out += ",\"pid\":1,\"tid\":";
      out += std::to_string(tid);
      out += ",\"args\":{\"trace_id\":\"";
      out += std::to_string(trace.trace_id);
      out += "\",\"span_id\":";
      out += std::to_string(s.id);
      out += ",\"parent\":";
      out += std::to_string(s.parent);
      for (const auto& [k, v] : s.attrs) {
        out += ",\"";
        out += json_escape(k);
        out += "\":\"";
        out += json_escape(v);
        out += '"';
      }
      out += "}}";
    }
  }
  out += "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"schema\":"
         "\"strt.obs.trace.v1\"}}";
  return out;
}

std::vector<RequestTrace> parse_chrome_trace(std::string_view json) {
  const JsonValue doc = JsonValue::parse(json);
  const JsonValue* other = doc.find("otherData");
  const JsonValue* schema = other ? other->find("schema") : nullptr;
  if (schema == nullptr || schema->string != "strt.obs.trace.v1") {
    throw std::invalid_argument(
        "parse_chrome_trace: missing or unknown schema");
  }
  const JsonValue* events = doc.find("traceEvents");
  if (events == nullptr || events->kind != JsonValue::Kind::Array) {
    throw std::invalid_argument("parse_chrome_trace: no traceEvents array");
  }

  std::vector<RequestTrace> traces;
  for (const JsonValue& ev : events->array) {
    const JsonValue* args = ev.find("args");
    const JsonValue* tid = args ? args->find("trace_id") : nullptr;
    const JsonValue* name = ev.find("name");
    const JsonValue* ts = ev.find("ts");
    const JsonValue* dur = ev.find("dur");
    const JsonValue* span_id = args ? args->find("span_id") : nullptr;
    const JsonValue* parent = args ? args->find("parent") : nullptr;
    if (tid == nullptr || name == nullptr || ts == nullptr ||
        dur == nullptr || span_id == nullptr || parent == nullptr) {
      throw std::invalid_argument("parse_chrome_trace: malformed event");
    }
    const std::uint64_t trace_id = std::stoull(tid->string);
    RequestTrace* trace = nullptr;
    for (RequestTrace& t : traces) {
      if (t.trace_id == trace_id) {
        trace = &t;
        break;
      }
    }
    if (trace == nullptr) {
      traces.emplace_back();
      traces.back().trace_id = trace_id;
      trace = &traces.back();
    }
    TraceSpanRecord rec;
    rec.id = static_cast<std::uint64_t>(span_id->integer);
    rec.parent = static_cast<std::uint64_t>(parent->integer);
    rec.name = name->string;
    rec.start_us = ts->integer;
    rec.dur_us = dur->integer;
    for (const auto& [k, v] : args->object) {
      if (k == "trace_id" || k == "span_id" || k == "parent") continue;
      if (v.kind == JsonValue::Kind::String) rec.attrs.emplace_back(k, v.string);
    }
    trace->spans.push_back(std::move(rec));
  }
  return traces;
}

}  // namespace strt::obs
