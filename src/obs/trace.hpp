// Observability: per-request tracing.
//
// A TraceContext owns one request's span tree: a 64-bit trace id plus a
// flat list of spans (hierarchical span ids, parent links, start time and
// duration in microseconds on a process-wide steady-clock epoch, and
// key:value attributes such as fingerprint / kind / cache.hits).  Spans
// are recorded by obs::Span (span.hpp): the service layer opens the
// coarse phases (queue -> request -> validate, run) as obs::Span(ctx,
// name); while such a span is live on a thread, every plain obs::Span the
// analyses already emit (explore, minplus.conv, hull, ...) is also
// recorded as a child span with real timestamps when observability is
// on, so a request's trace reaches down to the kernel phases without new
// instrumentation.
//
// Concurrency: a TraceContext is a shared handle; span appends take the
// context's mutex (requests are served by one thread at a time, so the
// lock is uncontended -- it exists so a service thread can snapshot a
// trace another worker built).
//
// Export: trace_to_chrome_json() serializes one or more traces as
// schema "strt.obs.trace.v1" -- the Chrome Trace Event Format (JSON
// object format, complete "X" events), loadable in chrome://tracing and
// Perfetto.  parse_chrome_trace() reads it back for round-trip tests.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace strt::obs {

/// Microseconds since the process trace epoch (the first call in the
/// process pins the epoch; all traces share it, so Perfetto lays
/// concurrent requests out on one timeline).
[[nodiscard]] std::int64_t trace_now_us();

/// The same epoch conversion for an already-taken steady_clock reading
/// (e.g. a request's admission time captured before its trace existed).
[[nodiscard]] std::int64_t trace_time_us(
    std::chrono::steady_clock::time_point t);

/// One finished span.  Ids are 1-based per trace; parent 0 = root.
struct TraceSpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::string name;
  std::int64_t start_us = 0;
  std::int64_t dur_us = 0;
  std::vector<std::pair<std::string, std::string>> attrs;
};

/// A finished request trace: the value embedded in AnalysisOutcome and
/// report lines.  Spans appear in completion order; sort_spans() orders
/// them by start time (ties: by id) for stable output.
struct RequestTrace {
  std::uint64_t trace_id = 0;
  std::vector<TraceSpanRecord> spans;

  void sort_spans();
  [[nodiscard]] bool empty() const { return spans.empty(); }
  /// First span with this name, nullptr when absent.
  [[nodiscard]] const TraceSpanRecord* find(std::string_view name) const;
};

/// Shared handle to an in-progress trace.  Default-constructed contexts
/// are disengaged (tracing off, every call a no-op); make() starts a
/// fresh trace.  Copies share the underlying buffer.
class TraceContext {
 public:
  TraceContext() = default;

  /// A fresh trace with a process-unique trace id.
  [[nodiscard]] static TraceContext make();

  [[nodiscard]] explicit operator bool() const { return data_ != nullptr; }
  [[nodiscard]] std::uint64_t trace_id() const;

  /// Appends a complete span covering [start_us, end_us]; returns its id
  /// (0 when disengaged).
  std::uint64_t add_complete_span(
      std::string_view name, std::int64_t start_us, std::int64_t end_us,
      std::uint64_t parent = 0,
      std::vector<std::pair<std::string, std::string>> attrs = {});

  [[nodiscard]] bool has_span(std::string_view name) const;

  /// Copies the finished spans out (sorted by start time).
  [[nodiscard]] RequestTrace snapshot() const&;
  /// The same, but moves the spans out (leaving the trace empty) when
  /// this is the last handle to it, so no other handle can observe that.
  [[nodiscard]] RequestTrace snapshot() &&;

 private:
  friend class Span;
  struct Data;

  // obs::Span's recording interface: open_span() appends a record that
  // stays open (dur_us -1) until close_span() sets its duration.
  std::uint64_t open_span(std::string_view name, std::uint64_t parent,
                          std::int64_t start_us) const;
  void close_span(std::uint64_t id, std::int64_t end_us) const;
  void span_attr(std::uint64_t id, std::string_view key,
                 std::string_view value) const;

  std::shared_ptr<Data> data_;
};

/// Serializes traces as schema "strt.obs.trace.v1": a Chrome Trace Event
/// Format JSON object ({"traceEvents": [...], "otherData": {...}}) with
/// one complete ("ph":"X") event per span.  Each trace's spans share a
/// tid equal to a sequence number so requests stack separately in
/// Perfetto; span/parent ids and attributes ride in "args".
[[nodiscard]] std::string trace_to_chrome_json(
    const std::vector<RequestTrace>& traces);

/// Parses trace_to_chrome_json() output back (schema check included);
/// throws std::invalid_argument on malformed input.
[[nodiscard]] std::vector<RequestTrace> parse_chrome_trace(
    std::string_view json);

}  // namespace strt::obs
