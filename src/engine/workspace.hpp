// strt::engine -- a memoizing analysis workspace.
//
// Every core analysis is built from the same few expensive artifacts: the
// exploration-backed request/demand-bound staircases rbf/dbf, materialized
// supply curves, pointwise sums, leftover-service curves, concave hulls
// and min-plus convolutions.  Sweeping callers (sensitivity probing,
// Audsley priority search, the joint-FP candidate loop, bench trial
// sweeps) recompute those artifacts with identical arguments over and
// over.  A Workspace caches them.
//
// Hash-consing: every curve the workspace produces is interned by a
// 64-bit content fingerprint (full equality confirmed on fingerprint
// match), so identical curves share one allocation and memo keys are
// fingerprints.
//
// Memo families -- intern, validate, rbf, dbf, sbf and derived (sums,
// min-plus convolutions, leftover service, hulls) -- are instances of one
// striped Memo (workspace.cpp).  A family supplies its key, its value and
// the eviction group of a key; the Memo does the rest, once for all of
// them:
//
//   * 16 (mutex, table) stripes picked by the key's hash, so lookups
//     about different systems almost never share a lock;
//   * the timed probe under the stripe lock (cache.lookup_ns, with the
//     acquisition wait in cache.lock_wait_ns), the computation outside
//     it, and a first-insert-wins insert: racers filling the same slot
//     compute the identical canonical artifact, so results stay
//     bit-identical to cache-off, to STRT_THREADS=1 and to any shard
//     count;
//   * the cache-off pass-through, hit/miss counting and LRU touches;
//   * the stripe-by-stripe walks behind eviction, the budget backfill and
//     save_snapshot, and the insert load_snapshot replays through.
//
// Only what really differs stays per family: rbf/dbf horizon-extension
// reuse (a cached curve materialized to H' >= H answers the H query by
// truncation, bit-identical to a fresh computation -- enforced by
// tests/test_engine_equivalence.cpp) and the bucketed intern table with
// its byte accounting.  No two stripe locks are ever held at once, and the
// eviction registry lock is never held while a stripe lock is taken.
//
// Not memoized, because measurement showed the memo did not pay: the
// pseudo-inverse lookups of the structural fold (Staircase::inverse is a
// branchless search, cheaper than a keyed probe) and granularity
// coarsening (curves/coarsen.hpp; the certified driver halves g every
// round, so a request never re-probes a (curve, g) pair).
//
// Switching off: Workspace(false) -- or the environment variable
// STRT_CACHE=0 for workspaces built with the default constructor -- turns
// every method into a pass-through that computes fresh (curve queries
// count as misses).  Results are bit-identical either way.
//
// Persistence: save_snapshot() writes the curve-bearing families to the
// versioned on-disk format strt.engine.snapshot.v2 (src/snapshot/; v1
// files still load), crash-safe via tmp+rename.  load_snapshot()
// revalidates every record (canonical form plus a recomputed fingerprint
// per curve) before it applies any, so a malformed file is rejected whole
// (snapshot.rejected) and warm-from-disk results stay bit-identical to
// cold computation.
//
// Eviction: set_cache_bytes_budget() bounds the interned-curve bytes.
// Past the budget, whole groups -- a task's, a curve's or a supply's
// entries across all families -- are dropped least-recently-touched
// first.  Groups touched since the oldest live pin_batch() started are
// never evicted.
//
// Observability: cache.hits / cache.misses / cache.bytes /
// cache.evictions / cache.evicted_bytes, and per family
// cache.<family>.hits / cache.<family>.misses, are bumped on the global
// obs registry; stats() returns the aggregate numbers per workspace.
// Snapshot I/O reports snapshot.load_ns / snapshot.save_ns /
// snapshot.entries / snapshot.rejected.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "base/types.hpp"
#include "check/diagnostics.hpp"
#include "curves/staircase.hpp"
#include "graph/drt.hpp"
#include "resource/supply.hpp"

namespace strt::engine {

/// Shared immutable curve handle: the unit of hash-consing.
using CurvePtr = std::shared_ptr<const Staircase>;

struct WorkspaceStats {
  /// Curve-level queries answered from the cache (including horizon
  /// truncations of a larger cached curve).
  std::uint64_t hits{0};
  /// Curve-level queries that had to compute (all queries when caching is
  /// off).
  std::uint64_t misses{0};
  /// Approximate bytes of interned curve storage currently held.
  std::uint64_t bytes{0};
  /// Always 0: pseudo-inverse lookups are no longer memoized.  Kept so
  /// readers of the former inverse-memo counts still compile.
  std::uint64_t inverse_hits{0};
  std::uint64_t inverse_misses{0};
  /// Entry groups dropped by the bytes-budget eviction policy, and the
  /// interned-curve bytes they released.
  std::uint64_t evictions{0};
  std::uint64_t evicted_bytes{0};
};

/// True unless STRT_CACHE resolves to "0" via strt::cfg (resolved once,
/// on first use).
[[nodiscard]] bool cache_enabled_default();

class Workspace {
 public:
  /// Caching per STRT_CACHE (default: on).
  Workspace();
  /// Explicit caching switch (tests, ablations, --no-cache flags).
  explicit Workspace(bool caching);
  /// Caching switch plus a bytes budget for the interned-curve storage
  /// (0 = unlimited); see set_cache_bytes_budget().
  Workspace(bool caching, std::uint64_t cache_bytes_budget);
  ~Workspace();

  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  [[nodiscard]] bool caching() const { return caching_; }

  /// Bounds the interned-curve bytes (stats().bytes).  0 = unlimited
  /// (the default; touch tracking is off and hit paths keep their
  /// lock-free cost).  When an insert pushes past the budget, the
  /// least-recently-touched per-fingerprint entry groups are evicted
  /// until the storage fits; save_snapshot() applies the same policy
  /// before writing.  Results are never affected -- an evicted entry is
  /// simply recomputed on its next query (bit-identity contract).
  void set_cache_bytes_budget(std::uint64_t bytes);
  [[nodiscard]] std::uint64_t cache_bytes_budget() const;

  /// While alive, entry groups touched since this pin was taken are
  /// exempt from eviction -- the batch leader's freshly warmed memos
  /// cannot be evicted out from under the group's tail.  Movable,
  /// released on destruction.
  class BatchPin {
   public:
    BatchPin(BatchPin&& other) noexcept
        : ws_(other.ws_), start_(other.start_) {
      other.ws_ = nullptr;
    }
    BatchPin(const BatchPin&) = delete;
    BatchPin& operator=(const BatchPin&) = delete;
    BatchPin& operator=(BatchPin&&) = delete;
    ~BatchPin();

   private:
    friend class Workspace;
    BatchPin(Workspace* ws, std::uint64_t start) : ws_(ws), start_(start) {}

    Workspace* ws_;  // null => no-op pin (budget off or caching off)
    std::uint64_t start_;
  };
  [[nodiscard]] BatchPin pin_batch();

  /// Serializes the curve-bearing memo families to `path` in the
  /// versioned strt.engine.snapshot.v2 format, crash-safe (tmp+rename).
  /// Applies the bytes-budget eviction first when a budget is set.
  /// False (reason in *error) on I/O failure; false with no entries
  /// written is still a valid snapshot of an empty workspace.
  bool save_snapshot(const std::string& path, std::string* error = nullptr);

  /// Validates and replays a snapshot into the memo tables (normal
  /// first-insert-wins inserts; safe concurrently with serving).  A
  /// missing file returns false quietly (cold start); a malformed file
  /// is rejected whole -- snapshot.rejected is bumped, *error gets the
  /// reason, no entry is applied, and the workspace stays clean.  Never
  /// throws.
  bool load_snapshot(const std::string& path, std::string* error = nullptr);

  /// Front gate: strt::check::check_task diagnostics for `task`, memoized
  /// by task fingerprint plus a hash of the task and vertex names (the
  /// findings name them, and the fingerprint does not cover names); the
  /// eviction group is the task fingerprint.  The lint pass is pure, so
  /// one result serves every later query.  Callers gate on result->ok()
  /// before running the analyses; checking never changes what rbf/dbf
  /// return.
  [[nodiscard]] std::shared_ptr<const check::CheckResult> validate(
      const DrtTask& task);

  /// Exact request-bound staircase of `task` on [0, horizon]; memoized by
  /// task fingerprint with horizon-extension reuse.
  [[nodiscard]] CurvePtr rbf(const DrtTask& task, Time horizon);

  /// Exact demand-bound staircase (frame-separated tasks only; throws
  /// like strt::dbf otherwise); memoized like rbf().
  [[nodiscard]] CurvePtr dbf(const DrtTask& task, Time horizon);

  /// supply.sbf(horizon), memoized by (supply description, horizon).
  [[nodiscard]] CurvePtr sbf(const Supply& supply, Time horizon);

  /// Memoized curve algebra (operand-fingerprint keyed, exact match).
  [[nodiscard]] CurvePtr pointwise_add(const Staircase& f,
                                       const Staircase& g);
  [[nodiscard]] CurvePtr minplus_conv(const Staircase& f, const Staircase& g);
  [[nodiscard]] CurvePtr leftover_service(const Staircase& b,
                                          const Staircase& a);
  [[nodiscard]] CurvePtr concave_hull_staircase(const Staircase& f);

  /// Hash-conses `c`: returns the workspace's canonical shared instance
  /// (full equality checked on fingerprint collision).
  [[nodiscard]] CurvePtr intern(Staircase c);

  [[nodiscard]] WorkspaceStats stats() const;

 private:
  enum class DerivedOp : std::uint8_t;
  template <class Compute>
  [[nodiscard]] CurvePtr derived(DerivedOp op, const Staircase& f,
                                 const Staircase* g, Compute&& compute);
  [[nodiscard]] CurvePtr workload_curve(const DrtTask& task, Time horizon,
                                        bool demand);

  struct Impl;
  std::unique_ptr<Impl> impl_;
  bool caching_;
};

}  // namespace strt::engine
