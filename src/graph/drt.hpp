// The digraph real-time task model (DRT), the "structural workload" of
// the paper: a directed graph whose vertices are job types and whose
// edges constrain consecutive releases.
//
// A run of the task is a walk v1 -> v2 -> ... through the graph; job i
// has WCET wcet(vi) and relative deadline deadline(vi), and consecutive
// releases are separated by at least separation(vi, vi+1) ticks.  The
// classical models (periodic, sporadic, generalized multiframe,
// recurring branching) are all special cases -- see src/model.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "base/rational.hpp"
#include "base/types.hpp"

namespace strt {

using VertexId = std::int32_t;

/// One job type of a DRT task.
struct DrtVertex {
  std::string name;
  Work wcet{1};
  Time deadline{1};
};

/// Minimum-separation edge between consecutive job releases.
struct DrtEdge {
  VertexId from{0};
  VertexId to{0};
  Time separation{1};
};

/// A validated DRT task.  Build with DrtBuilder; instances are immutable.
class DrtTask {
 public:
  [[nodiscard]] std::size_t vertex_count() const { return vertices_.size(); }
  [[nodiscard]] std::size_t edge_count() const { return edges_.size(); }

  [[nodiscard]] const DrtVertex& vertex(VertexId v) const;
  [[nodiscard]] std::span<const DrtVertex> vertices() const {
    return vertices_;
  }
  [[nodiscard]] std::span<const DrtEdge> edges() const { return edges_; }

  /// Out-edges of `v` (indices into edges()).
  [[nodiscard]] std::span<const std::int32_t> out_edges(VertexId v) const;

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Largest single-job execution demand.
  [[nodiscard]] Work max_wcet() const;

  /// True if every vertex deadline is at most every outgoing separation
  /// ("frame separation" property).  Under it, absolute deadlines along
  /// any path are non-decreasing, which the exact dbf staircase relies on.
  [[nodiscard]] bool has_frame_separation() const;

  /// True if the graph has at least one cycle (i.e. the task can release
  /// unboundedly many jobs).
  [[nodiscard]] bool is_cyclic() const;

  /// Content fingerprint over the analysis-relevant structure: vertex
  /// (wcet, deadline) lists and (from, to, separation) edge lists, in
  /// order.  Names are deliberately excluded -- they never influence a
  /// curve or a delay bound -- so structurally identical tasks share one
  /// fingerprint.  Computed once at build(); used by engine::Workspace to
  /// key memoized rbf/dbf curves.
  [[nodiscard]] std::uint64_t fingerprint() const { return fingerprint_; }

  /// True if build() could not compute the long-run utilization because
  /// the exact search overflowed 64-bit arithmetic (hostile magnitudes).
  /// utilization() then throws OverflowError; check_task reports it.
  [[nodiscard]] bool utilization_overflowed() const {
    return utilization_overflowed_;
  }

 private:
  friend class DrtBuilder;
  /// Reads the utilization stored at build() (graph/cycle_ratio.hpp).
  friend std::optional<Rational> utilization(const DrtTask& task);
  DrtTask() = default;

  std::string name_;
  std::vector<DrtVertex> vertices_;
  std::vector<DrtEdge> edges_;
  std::vector<std::int32_t> out_index_;   // CSR offsets, size V+1
  std::vector<std::int32_t> out_edges_;   // CSR edge indices
  std::uint64_t fingerprint_{0};
  std::optional<Rational> utilization_;  // nullopt: acyclic or overflowed
  bool utilization_overflowed_{false};
};

/// Incremental construction of a DrtTask with validation at build().
class DrtBuilder {
 public:
  explicit DrtBuilder(std::string name);

  /// Adds a job type; wcet >= 1, deadline >= 1.  Returns its id.
  VertexId add_vertex(std::string name, Work wcet, Time deadline);

  /// Adds a release constraint; separation >= 1.  Parallel edges and
  /// self-loops are allowed (a self-loop models a sporadic recurrence).
  DrtBuilder& add_edge(VertexId from, VertexId to, Time separation);

  /// Validates and produces the task.  Throws std::invalid_argument on
  /// inconsistent input (bad ids, empty graph, non-positive parameters).
  /// Also computes the fingerprint and the exact utilization once; a
  /// utilization search that overflows is recorded on the task
  /// (DrtTask::utilization_overflowed()), not thrown.
  [[nodiscard]] DrtTask build() &&;

 private:
  std::string name_;
  std::vector<DrtVertex> vertices_;
  std::vector<DrtEdge> edges_;
};

std::ostream& operator<<(std::ostream& os, const DrtTask& task);

}  // namespace strt
