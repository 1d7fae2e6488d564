// Observability: the RAII span -- one type for the phase profile and the
// request trace.
//
// A Span marks a phase of the analysis ("explore", "minplus.conv", ...).
// Spans nest lexically: a span opened while another is live becomes its
// child in the profile tree, and re-entering the same phase name under
// the same parent accumulates into one node (count + total time) instead
// of growing the tree.  The tree is therefore bounded by the number of
// distinct phase *paths*, not the number of phase entries -- safe to put
// on per-operation boundaries such as each min-plus convolution.
//
// The profile tree is per-thread (thread_local): spans never contend, and
// a worker thread's profile does not interleave into the main thread's.
// Snapshot / reset act on the calling thread's tree.
//
// Tracing: a Span opened over a TraceContext (the service layer opens
// "request", "validate" and "run" this way) records into that request's
// trace whether or not observability is on, and for its lifetime is the
// thread's active trace position.  Every plain Span opened inside it
// while observability is on appends a timestamped child span to that
// trace, so per-request traces reach the kernel phases through the
// instrumentation that already exists.  One thread-local frame holds
// both the profile cursor and the trace position.
//
// When observability is disabled (see counters.hpp) constructing a plain
// Span costs one relaxed atomic load and a branch; no clock is read.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace strt::obs {

class TraceContext;

namespace detail {
struct SpanNode;

/// Where the calling thread's next Span nests.
struct SpanFrame {
  SpanNode* node = nullptr;             // profile cursor
  const TraceContext* trace = nullptr;  // active request trace, if any
  std::uint64_t parent = 0;             // innermost open span of `trace`
};
}  // namespace detail

/// RAII phase marker.  `name` must outlive the constructor call only (it
/// is copied on first use of a given phase path).
class Span {
 public:
  /// A phase of the profile; while observability is on it also appends
  /// a child span at the thread's active trace position, if any.
  explicit Span(std::string_view name);

  /// A span of `ctx`'s trace, recorded even while observability is off.
  /// It nests under the innermost live span of the same trace on this
  /// thread (a span over another trace starts its own root chain) and
  /// is the thread's trace position until it closes.  With
  /// observability on it is also a profile phase.  Over a disengaged
  /// context it is a plain Span(name).  `ctx` must outlive the span.
  Span(const TraceContext& ctx, std::string_view name);
  Span(TraceContext&&, std::string_view) = delete;

  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&&) = delete;
  Span& operator=(Span&&) = delete;

  /// Attaches a key:value attribute to this span's trace record (no-op
  /// when the span records into no trace).
  void attr(std::string_view key, std::string_view value);
  void attr(std::string_view key, std::uint64_t value);

  /// This span's id within its trace (0 when it records into none).
  [[nodiscard]] std::uint64_t id() const { return id_; }

 private:
  void open(const TraceContext* ctx, std::string_view name, bool profile);

  detail::SpanFrame saved_;              // the frame to restore on close
  detail::SpanNode* node_ = nullptr;     // profile node, if profiled
  const TraceContext* trace_ = nullptr;  // trace recorded into, if any
  std::uint64_t id_ = 0;
  std::chrono::steady_clock::time_point start_;
};

/// One node of a profile snapshot.
struct SpanSample {
  std::string name;
  std::uint64_t count = 0;    // times the phase was entered
  std::int64_t total_ns = 0;  // accumulated wall time, nanoseconds
  std::vector<SpanSample> children;
};

/// Snapshot of the calling thread's profile tree: the top-level phases in
/// first-entered order, children nested.  Live (unclosed) spans report
/// the time accumulated by their already-closed entries only.
[[nodiscard]] std::vector<SpanSample> span_tree();

/// Clears the calling thread's profile tree.  Must not be called while a
/// span is live on this thread (the live span would dangle); the library
/// never holds spans across public API boundaries, so resetting between
/// analyses is safe.
void reset_spans();

}  // namespace strt::obs
