#include "core/certified.hpp"

#include <utility>

#include "base/assert.hpp"
#include "base/checked.hpp"
#include "core/busy_window.hpp"
#include "core/curve_based.hpp"
#include "curves/coarsen.hpp"
#include "curves/minplus.hpp"
#include "engine/workspace.hpp"
#include "obs/counters.hpp"
#include "obs/span.hpp"

namespace strt {

namespace {

/// One coarse round at granularity g: the sound delay/backlog bracket.
struct CoarseRound {
  Time d_hi = Time::unbounded();
  Time d_lo{0};
  Work backlog = Work::unbounded();
};

CoarseRound coarse_round(const Staircase& rbf_l, const BusyWindow& bw,
                         Time g) {
  const Time L = bw.length;
  const CoarseCurve up_r = coarsen_upper(rbf_l, g);
  const CoarseCurve lo_r = coarsen_lower(rbf_l, g);
  const CoarseCurve up_s = coarsen_upper(bw.sbf, g);
  CoarseCurve lo_s = coarsen_lower(bw.sbf, g);

  CoarseRound round;
  // The lower bound is always in-domain: lo_r's values never exceed
  // rbf(L) <= sbf(L) <= up_s(L), so hdev stays inside up_s's horizon.
  round.d_lo = hdev(lo_r.curve, up_s.curve);
  // So is the backlog bound: vdev only probes times <= L.
  round.backlog = vdev(up_r.curve, lo_s.curve, L);

  // The upper bound queries values up to V = up_r(L) >= rbf(L), which
  // can overshoot the tail-less lo_s's horizon value.  Re-materialize
  // the exact sbf (whose tail is preserved) out to the next grid point
  // past sbf^{-1}(V) and re-coarsen; if the exact supply provably never
  // reaches V, the bracket top is unbounded at this granularity and the
  // caller refines.
  const Work v_top = up_r.curve.value_at_horizon();
  if (lo_s.curve.value_at_horizon() < v_top) {
    const Time x = bw.sbf.inverse(v_top);
    if (x.is_unbounded()) return round;  // d_hi stays unbounded
    const std::int64_t grid = checked::mul(
        checked::ceil_div(x.count(), g.count()), g.count());
    const Time h2 = max(Time(grid), L);
    lo_s = coarsen_lower(bw.sbf.extended(h2), g);
    STRT_ASSERT(lo_s.curve.value_at_horizon() >= v_top,
                "coarse supply extension must cover the queried values");
  }
  round.d_hi = hdev(up_r.curve, lo_s.curve);
  return round;
}

}  // namespace

CertifiedDelayResult certified_curve_delay(engine::Workspace& ws,
                                           const DrtTask& task,
                                           const Supply& supply,
                                           const CertifiedDelayOptions& opts) {
  STRT_REQUIRE(opts.granularity >= Time(1),
               "coarsening granularity must be >= 1");
  const obs::Span span("core.certified");
  static obs::Counter& c_rounds = obs::counter("core.certified.rounds");

  CertifiedDelayResult res;
  const std::optional<BusyWindow> bw = busy_window(ws, task, supply);
  if (!bw) {
    // Overload: the exact analysis is unbounded too, so the bracket is
    // exact (width 0) without any coarse work.
    res.delay = Time::unbounded();
    res.delay_lower = Time::unbounded();
    res.certified_error = Time(0);
    res.backlog = Work::unbounded();
    res.busy_window = Time::unbounded();
    res.granularity = opts.granularity;
    res.rounds = 1;
    res.exact = true;
    if (opts.decide) res.meets_deadline = false;
    return res;
  }

  const Staircase rbf_l = bw->rbf.truncated(bw->length);
  res.busy_window = bw->length;
  Time g = opts.granularity;
  for (std::size_t round = 1;; ++round) {
    c_rounds.add(1);
    res.rounds = round;
    res.granularity = g;
    if (g == Time(1)) {
      const CurveResult ex = curve_delay_vs(rbf_l, bw->sbf);
      res.delay = ex.delay;
      res.delay_lower = ex.delay;
      res.certified_error = Time(0);
      res.backlog = ex.backlog;
      res.busy_window = ex.busy_window;
      res.exact = true;
      if (opts.decide) res.meets_deadline = res.delay <= *opts.decide;
      return res;
    }

    const CoarseRound cr = coarse_round(rbf_l, *bw, g);
    res.delay = cr.d_hi;
    res.delay_lower = cr.d_lo;
    res.certified_error = cr.d_hi - cr.d_lo;  // sticky: stays unbounded
    res.backlog = cr.backlog;
    res.exact = false;
    res.meets_deadline.reset();

    if (!cr.d_hi.is_unbounded()) {
      if (opts.decide) {
        if (cr.d_hi <= *opts.decide) {
          res.meets_deadline = true;
          return res;
        }
        if (cr.d_lo > *opts.decide) {
          res.meets_deadline = false;
          return res;
        }
      } else if (res.certified_error <= opts.tolerance) {
        return res;
      }
    }
    g = (round >= opts.max_rounds) ? Time(1)
                                   : max(Time(1), Time(g.count() / 2));
  }
}

}  // namespace strt
