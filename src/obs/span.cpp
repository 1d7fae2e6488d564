#include "obs/span.hpp"

#include <memory>

#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace strt::obs {

namespace detail {

struct SpanNode {
  std::string name;
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::vector<std::unique_ptr<SpanNode>> children;

  SpanNode* child(std::string_view child_name) {
    for (const auto& c : children) {
      if (c->name == child_name) return c.get();
    }
    auto node = std::make_unique<SpanNode>();
    node->name = std::string(child_name);
    children.push_back(std::move(node));
    return children.back().get();
  }
};

namespace {

struct ThreadTree {
  SpanNode root;  // name left empty; holds the top-level phases
  SpanFrame frame{.node = &root};
};

ThreadTree& tls_tree() {
  thread_local ThreadTree tree;
  return tree;
}

void sample_into(const SpanNode& node, std::vector<SpanSample>& out) {
  for (const auto& c : node.children) {
    SpanSample s;
    s.name = c->name;
    s.count = c->count;
    s.total_ns = c->total_ns;
    sample_into(*c, s.children);
    out.push_back(std::move(s));
  }
}

}  // namespace

}  // namespace detail

Span::Span(std::string_view name) {
  if (enabled()) open(nullptr, name, /*profile=*/true);
}

Span::Span(const TraceContext& ctx, std::string_view name) {
  const bool profile = enabled();
  if (ctx || profile) open(ctx ? &ctx : nullptr, name, profile);
}

void Span::open(const TraceContext* ctx, std::string_view name,
                bool profile) {
  detail::SpanFrame& frame = detail::tls_tree().frame;
  saved_ = frame;
  start_ = std::chrono::steady_clock::now();
  if (profile) {
    node_ = frame.node->child(name);
    frame.node = node_;
  }
  if (ctx != nullptr) {
    // A span over a trace other than the active one starts a root chain.
    if (frame.trace == nullptr || frame.trace->data_ != ctx->data_) {
      frame.parent = 0;
    }
    frame.trace = ctx;
  }
  if (frame.trace != nullptr) {
    trace_ = frame.trace;
    id_ = trace_->open_span(name, frame.parent, trace_time_us(start_));
    frame.parent = id_;
  }
}

Span::~Span() {
  if (node_ == nullptr && trace_ == nullptr) return;
  const auto end = std::chrono::steady_clock::now();
  if (node_ != nullptr) {
    node_->total_ns +=
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start_)
            .count();
    ++node_->count;
  }
  if (trace_ != nullptr) trace_->close_span(id_, trace_time_us(end));
  detail::tls_tree().frame = saved_;
}

void Span::attr(std::string_view key, std::string_view value) {
  if (trace_ != nullptr) trace_->span_attr(id_, key, value);
}

void Span::attr(std::string_view key, std::uint64_t value) {
  if (trace_ != nullptr) attr(key, std::string_view(std::to_string(value)));
}

std::vector<SpanSample> span_tree() {
  std::vector<SpanSample> out;
  detail::sample_into(detail::tls_tree().root, out);
  return out;
}

void reset_spans() {
  detail::ThreadTree& tree = detail::tls_tree();
  tree.root.children.clear();
  tree.frame.node = &tree.root;
}

}  // namespace strt::obs
