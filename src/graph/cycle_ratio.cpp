#include "graph/cycle_ratio.hpp"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "base/assert.hpp"
#include "base/checked.hpp"

namespace strt {
namespace detail {

namespace {

enum class CycleSign { kNegative, kZero, kPositive };
enum class Color : std::uint8_t { kWhite, kGray, kBlack };

/// Work buffers of one search, sized once and reused by every probe.
struct ProbeBuffers {
  explicit ProbeBuffers(const DrtTask& task)
      : w(task.edge_count()), d(task.vertex_count()),
        color(task.vertex_count()) {}

  std::vector<std::int64_t> w;
  std::vector<std::int64_t> d;
  std::vector<Color> color;
  std::vector<std::pair<VertexId, std::size_t>> stack;
};

/// Sign of the best cycle of the parametric test graph at ratio a/b.
CycleSign best_cycle_sign(const DrtTask& task, std::int64_t a,
                          std::int64_t b, ProbeBuffers& buf) {
  STRT_REQUIRE(b > 0, "ratio denominator must be positive");
  const std::size_t nv = task.vertex_count();
  const auto vertices = task.vertices();
  const auto edges = task.edges();

  std::vector<std::int64_t>& w = buf.w;
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const auto u = static_cast<std::size_t>(edges[i].from);
    w[i] = checked::sub(checked::mul(b, vertices[u].wcet.count()),
                        checked::mul(a, edges[i].separation.count()));
  }

  // Longest-path Bellman-Ford from a virtual source connected to every
  // vertex with weight 0 (equivalently: all distances start at 0, which
  // also makes every cycle reachable).
  std::vector<std::int64_t>& d = buf.d;
  std::fill(d.begin(), d.end(), 0);
  bool changed = false;
  for (std::size_t pass = 0; pass <= nv; ++pass) {
    changed = false;
    for (std::size_t i = 0; i < edges.size(); ++i) {
      const auto u = static_cast<std::size_t>(edges[i].from);
      const auto v = static_cast<std::size_t>(edges[i].to);
      const std::int64_t cand = checked::add(d[u], w[i]);
      if (cand > d[v]) {
        d[v] = cand;
        changed = true;
      }
    }
    if (!changed) break;
  }
  if (changed) return CycleSign::kPositive;  // still improving after V passes

  // Zero cycle iff the tight subgraph (edges with d[u] + w == d[v]) has a
  // cycle; any cycle's weight is -sum(slack), so zero exactly when all its
  // edges are tight.
  std::vector<Color>& color = buf.color;
  std::fill(color.begin(), color.end(), Color::kWhite);
  auto& stack = buf.stack;
  stack.clear();
  for (VertexId s = 0; static_cast<std::size_t>(s) < nv; ++s) {
    if (color[static_cast<std::size_t>(s)] != Color::kWhite) continue;
    stack.emplace_back(s, 0);
    color[static_cast<std::size_t>(s)] = Color::kGray;
    while (!stack.empty()) {
      auto& [v, next] = stack.back();
      const auto out = task.out_edges(v);
      bool descended = false;
      while (next < out.size()) {
        const auto ei = static_cast<std::size_t>(out[next]);
        ++next;
        const DrtEdge& e = edges[ei];
        if (d[static_cast<std::size_t>(e.from)] + w[ei] !=
            d[static_cast<std::size_t>(e.to)]) {
          continue;  // slack edge, not in the tight subgraph
        }
        auto& cu = color[static_cast<std::size_t>(e.to)];
        if (cu == Color::kGray) return CycleSign::kZero;
        if (cu == Color::kWhite) {
          cu = Color::kGray;
          stack.emplace_back(e.to, 0);
          descended = true;
          break;
        }
      }
      if (descended) continue;
      color[static_cast<std::size_t>(v)] = Color::kBlack;
      stack.pop_back();
    }
  }
  return CycleSign::kNegative;
}

}  // namespace

Rational simplest_between(const Rational& lo, const Rational& hi) {
  STRT_REQUIRE(lo < hi, "simplest_between requires lo < hi");
  // Continued-fraction descent: if an integer lies strictly inside, it is
  // the simplest; otherwise both bounds share the integer part and we
  // recurse on the reciprocal of the fractional parts (order swaps).
  const std::int64_t fl = lo.floor();
  const Rational next_int(checked::add(fl, 1));
  if (next_int < hi) return next_int;
  const Rational frac_lo = lo - Rational(fl);
  const Rational frac_hi = hi - Rational(fl);
  if (frac_lo.is_zero()) {
    // Interval (fl, hi): the simplest is fl + 1/k with minimal k such
    // that fl + 1/k < hi, i.e. k = floor(1 / (hi - fl)) + 1.
    const Rational inv = Rational(1) / frac_hi;
    std::int64_t k = checked::add(inv.floor(), 1);
    if (Rational(1) / Rational(k) >= frac_hi) k = checked::add(k, 1);
    return Rational(fl) + Rational(1, k);
  }
  const Rational inner =
      simplest_between(Rational(1) / frac_hi, Rational(1) / frac_lo);
  return Rational(fl) + Rational(1) / inner;
}

std::optional<Rational> max_cycle_ratio(const DrtTask& task) {
  if (!task.is_cyclic()) return std::nullopt;
  ProbeBuffers buf(task);
  const auto probe = [&](std::int64_t a, std::int64_t b) {
    return best_cycle_sign(task, a, b, buf);
  };

  // Invariant: probe(lo) == positive (U > lo) and U < hi, with
  // lo = ln/ld and hi = hn/hd adjacent Farey neighbours (hn*ld - ln*hd == 1).
  std::int64_t ln = 0;  // wcets are >= 1 and a cycle exists, so U > 0
  std::int64_t ld = 1;
  STRT_ASSERT(probe(ln, ld) == CycleSign::kPositive,
              "a cyclic task must have positive utilization");
  // U <= max wcet / min sep <= max wcet.
  STRT_ASSERT(probe(checked::add(task.max_wcet().count(), 1), 1) ==
                  CycleSign::kNegative,
              "utilization upper bound violated");
  // hi starts at 1/0: the mediants k/1 + 1/0 = (k+1)/1 are the integer
  // probes, and lo never reaches max wcet + 1.  The simplest rational
  // strictly between adjacent neighbours is their mediant, already in
  // lowest terms, and it neighbours both, so lo and hi stay adjacent.
  std::int64_t hn = 1;
  std::int64_t hd = 0;

  // The mediant walk moves one bound toward the other in runs: from
  // (from, toward), the k-th step of a run probes from + k*toward, and
  // the run lasts while the probe keeps the sign `keep`.  A run's length
  // is found by doubling k and then bisecting, so it costs O(log k)
  // probes instead of k.  Within a run every quantity a probe computes
  // is monotone or convex in k, and the search probes each run's first
  // and last steps, so it overflows exactly when the step-by-step walk
  // would; a probe past the end of the run that overflows is only an
  // overshoot.
  const auto step = [&](std::int64_t fn, std::int64_t fd, std::int64_t tn,
                        std::int64_t td,
                        std::int64_t k) -> std::optional<CycleSign> {
    try {
      return probe(checked::add(fn, checked::mul(k, tn)),
                   checked::add(fd, checked::mul(k, td)));
    } catch (const OverflowError&) {
      return std::nullopt;
    }
  };
  for (bool raise_lo = true;; raise_lo = !raise_lo) {
    std::int64_t& fn = raise_lo ? ln : hn;
    std::int64_t& fd = raise_lo ? ld : hd;
    std::int64_t& tn = raise_lo ? hn : ln;
    std::int64_t& td = raise_lo ? hd : ld;
    const CycleSign keep =
        raise_lo ? CycleSign::kPositive : CycleSign::kNegative;
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    // Steps 1..kept keep the sign; step `ended` does not, with `end`
    // its probe (nullopt: it overflowed).
    std::int64_t kept = 0;
    std::int64_t ended = 1;
    std::optional<CycleSign> end;
    for (;; ended = ended > kMax / 2 ? kMax : ended * 2) {
      end = step(fn, fd, tn, td, ended);
      if (end != keep) break;
      kept = ended;
      if (ended == kMax) throw OverflowError("utilization search diverged");
    }
    while (ended - kept > 1) {
      const std::int64_t mid = kept + (ended - kept) / 2;
      const std::optional<CycleSign> s = step(fn, fd, tn, td, mid);
      if (s == keep) {
        kept = mid;
      } else {
        ended = mid;
        end = s;
      }
    }
    // The walk probes step kept + 1 next: it overflows there too.
    if (!end) throw OverflowError("integer overflow in the utilization search");
    const std::int64_t mn = fn + ended * tn;  // probed, so in range
    const std::int64_t md = fd + ended * td;
    if (*end == CycleSign::kZero) return Rational(mn, md);
    fn += kept * tn;
    fd += kept * td;
    tn = mn;
    td = md;
  }
}

}  // namespace detail

std::optional<Rational> utilization(const DrtTask& task) {
  if (task.utilization_overflowed()) {
    throw OverflowError("integer overflow in the utilization search");
  }
  return task.utilization_;
}

}  // namespace strt
