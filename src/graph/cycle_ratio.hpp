// Long-run utilization of a DRT task: the maximum cycle ratio
//
//     U = max over cycles C of  (sum of wcet(v) for v in C)
//                             / (sum of separation(e) for e in C)
//
// computed exactly over the rationals.  U is the asymptotic slope of the
// request-bound function; the finitary busy-window analysis is feasible
// iff U is strictly below the long-run supply rate.
#pragma once

#include <optional>

#include "base/rational.hpp"
#include "graph/drt.hpp"

namespace strt {

/// Exact maximum cycle ratio; nullopt for acyclic graphs (the task can
/// only release finitely many jobs, long-run rate zero).
///
/// O(1): DrtBuilder::build() runs the search (detail::max_cycle_ratio)
/// once and the task stores the result, like its fingerprint.  Throws
/// OverflowError if that search overflowed 64-bit arithmetic
/// (DrtTask::utilization_overflowed()).
[[nodiscard]] std::optional<Rational> utilization(const DrtTask& task);

namespace detail {

/// The search behind utilization(); throws OverflowError on overflow.
///
/// Algorithm: parametric search.  For a candidate ratio q = a/b, the test
/// graph with edge weights b*wcet(u) - a*separation(u,v) has a positive
/// cycle iff U > q and a zero-weight (but no positive) cycle iff U == q.
/// Candidates follow the Stern-Brocot walk toward U (the mediant of the
/// bounds, which stay adjacent Farey neighbours).  The walk moves in runs
/// of same-direction steps, one per continued-fraction term of U; each
/// run's length k is found by doubling then bisecting, O(log k) probes,
/// so a ratio like 1/2^40 costs about 80 probes instead of 2^40.  Each
/// probe is a Bellman-Ford longest-path sweep, O(V * E), over buffers
/// allocated once per search.
[[nodiscard]] std::optional<Rational> max_cycle_ratio(const DrtTask& task);

/// Simplest rational strictly between lo and hi (both exclusive);
/// requires lo < hi.  "Simplest" = smallest denominator, then smallest
/// numerator.  Exposed as the test oracle for the mediant probes.
[[nodiscard]] Rational simplest_between(const Rational& lo,
                                        const Rational& hi);

}  // namespace detail
}  // namespace strt
