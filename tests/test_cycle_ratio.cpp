#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "base/rng.hpp"
#include "core/sensitivity.hpp"
#include "graph/cycle_ratio.hpp"
#include "graph/scc.hpp"
#include "model/generator.hpp"
#include "model/gmf.hpp"
#include "model/sporadic.hpp"
#include "testutil.hpp"

namespace strt {
namespace {

TEST(SimplestBetween, FindsSimplestRational) {
  using detail::simplest_between;
  EXPECT_EQ(simplest_between(Rational(0), Rational(2)), Rational(1));
  EXPECT_EQ(simplest_between(Rational(0), Rational(1)), Rational(1, 2));
  EXPECT_EQ(simplest_between(Rational(1, 3), Rational(1, 2)),
            Rational(2, 5));
  EXPECT_EQ(simplest_between(Rational(3, 7), Rational(4, 7)),
            Rational(1, 2));
  // (13/9, 31/21) ~ (1.444, 1.476): no denominator <= 10 fits; 16/11 does.
  EXPECT_EQ(simplest_between(Rational(13, 9), Rational(31, 21)),
            Rational(16, 11));
  // (1/1000, 1/999) contains no fraction with numerator 1; the simplest
  // inhabitant is 2/1999.
  EXPECT_EQ(simplest_between(Rational(1, 1000), Rational(1, 999)),
            Rational(2, 1999));
  EXPECT_THROW((void)simplest_between(Rational(1), Rational(1)),
               std::invalid_argument);
}

TEST(SimplestBetween, ExhaustiveSmallIntervals) {
  // For every pair lo < hi with denominators <= 12, the result must lie
  // strictly inside and no rational with a smaller denominator may.
  std::vector<Rational> values;
  for (int den = 1; den <= 12; ++den) {
    for (int num = 0; num <= 2 * den; ++num) {
      values.emplace_back(num, den);
    }
  }
  for (const Rational& lo : values) {
    for (const Rational& hi : values) {
      if (!(lo < hi)) continue;
      const Rational s = detail::simplest_between(lo, hi);
      EXPECT_LT(lo, s);
      EXPECT_LT(s, hi);
      for (int den = 1; den < s.den(); ++den) {
        for (std::int64_t num = lo.num() * den / lo.den();
             num <= hi.num() * den / hi.den() + 1; ++num) {
          const Rational cand(num, den);
          EXPECT_FALSE(lo < cand && cand < hi)
              << "simpler " << cand.to_string() << " inside ("
              << lo.to_string() << ", " << hi.to_string() << "), got "
              << s.to_string();
        }
      }
    }
  }
}

TEST(SimplestBetween, IsTheMediantOfFareyNeighbours) {
  // Random Stern-Brocot descents: once hn*ld - ln*hd == 1, the simplest
  // rational strictly inside is the mediant, already in lowest terms --
  // which is why max_cycle_ratio always probes the mediant.
  Rng rng(31);
  for (int walk = 0; walk < 50; ++walk) {
    std::int64_t ln = rng.uniform_int(0, 5);
    std::int64_t ld = 1;
    std::int64_t hn = ln + 1;
    std::int64_t hd = 1;
    for (int step = 0; step < 40; ++step) {
      ASSERT_EQ(hn * ld - ln * hd, 1);
      const Rational mediant(ln + hn, ld + hd);
      EXPECT_EQ(mediant.num(), ln + hn);  // no reduction happened
      EXPECT_EQ(mediant.den(), ld + hd);
      EXPECT_EQ(detail::simplest_between(Rational(ln, ld), Rational(hn, hd)),
                mediant);
      if (rng.chance(0.5)) {
        ln += hn;
        ld += hd;
      } else {
        hn += ln;
        hd += ld;
      }
    }
  }
}

TEST(Utilization, SporadicIsWcetOverPeriod) {
  const SporadicTask sp{"s", Work(3), Time(7), Time(7)};
  const auto u = utilization(sp.to_drt());
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(*u, Rational(3, 7));
}

TEST(Utilization, GmfIsTotalRatioWhenUniform) {
  const GmfTask gmf("g", {GmfFrame{Work(2), Time(5), Time(5)},
                          GmfFrame{Work(3), Time(10), Time(10)},
                          GmfFrame{Work(1), Time(5), Time(5)}});
  const auto u = utilization(gmf.to_drt());
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(*u, Rational(6, 20));
}

TEST(Utilization, PicksTheWorstCycle) {
  // Two loops on A: a tight one via B (ratio (1+3)/(2+2)=1) and a loose
  // one via C (ratio (1+1)/(10+10)=0.1).
  DrtBuilder b("two");
  const VertexId a = b.add_vertex("A", Work(1), Time(1));
  const VertexId v = b.add_vertex("B", Work(3), Time(1));
  const VertexId c = b.add_vertex("C", Work(1), Time(1));
  b.add_edge(a, v, Time(2)).add_edge(v, a, Time(2));
  b.add_edge(a, c, Time(10)).add_edge(c, a, Time(10));
  const auto u = utilization(std::move(b).build());
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(*u, Rational(1));
}

TEST(Utilization, AcyclicHasNone) {
  DrtBuilder b("dag");
  const VertexId a = b.add_vertex("A", Work(5), Time(1));
  const VertexId v = b.add_vertex("B", Work(5), Time(1));
  b.add_edge(a, v, Time(1));
  EXPECT_FALSE(utilization(std::move(b).build()).has_value());
}

TEST(Utilization, SelfLoopOfOne) {
  DrtBuilder b("unit");
  const VertexId a = b.add_vertex("A", Work(1), Time(1));
  b.add_edge(a, a, Time(1));
  const auto u = utilization(std::move(b).build());
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(*u, Rational(1));
}

DrtTask self_loop_unit_task() {
  DrtBuilder b("unit");
  const VertexId a = b.add_vertex("A", Work(1), Time(1));
  b.add_edge(a, a, Time(2));
  return std::move(b).build();
}

/// Brute-force max cycle ratio by enumerating simple cycles (DFS).
Rational brute_max_cycle_ratio(const DrtTask& task) {
  Rational best(0);
  std::vector<bool> on_path(task.vertex_count(), false);
  std::vector<VertexId> path;
  std::vector<Time> seps;
  bool found = false;
  std::function<void(VertexId)> dfs = [&](VertexId v) {
    for (std::int32_t ei : task.out_edges(v)) {
      const DrtEdge& e = task.edges()[static_cast<std::size_t>(ei)];
      if (on_path[static_cast<std::size_t>(e.to)]) {
        // Close the cycle at e.to if it is on the current path.
        auto it = std::find(path.begin(), path.end(), e.to);
        std::int64_t work = 0;
        std::int64_t sep = e.separation.count();
        for (auto p = it; p != path.end(); ++p) {
          work += task.vertex(*p).wcet.count();
          if (p + 1 != path.end()) {
            sep += seps[static_cast<std::size_t>(p - path.begin())].count();
          }
        }
        const Rational ratio(work, sep);
        if (!found || best < ratio) best = ratio;
        found = true;
        continue;
      }
      on_path[static_cast<std::size_t>(e.to)] = true;
      path.push_back(e.to);
      seps.push_back(e.separation);
      dfs(e.to);
      seps.pop_back();
      path.pop_back();
      on_path[static_cast<std::size_t>(e.to)] = false;
    }
  };
  for (VertexId v = 0; static_cast<std::size_t>(v) < task.vertex_count();
       ++v) {
    on_path[static_cast<std::size_t>(v)] = true;
    path.push_back(v);
    dfs(v);
    path.pop_back();
    on_path[static_cast<std::size_t>(v)] = false;
  }
  return best;
}

TEST(Utilization, MatchesBruteForceOnRandomGraphs) {
  Rng rng(606);
  for (int trial = 0; trial < 30; ++trial) {
    DrtGenParams params;
    params.min_vertices = 3;
    params.max_vertices = 6;
    params.min_separation = Time(1);
    params.max_separation = Time(12);
    params.chord_probability = 0.25;
    params.target_utilization = 0.5;
    const DrtTask task = random_drt(rng, params).task;
    const auto u = utilization(task);
    ASSERT_TRUE(u.has_value());
    EXPECT_EQ(*u, brute_max_cycle_ratio(task)) << "trial " << trial;
  }
}

/// Random DRT graph over 1-6 vertices: self-loops, sparse cross edges
/// (so several SCCs are common) and wcets on the scale of the
/// separations, so utilizations land on both sides of 1.
DrtTask random_graph(Rng& rng) {
  DrtBuilder b("rnd");
  const auto n = rng.uniform_int(1, 6);
  for (std::int64_t v = 0; v < n; ++v) {
    // Not "v" + std::to_string(v): gcc 12's -Wrestrict misfires on that
    // operator+ at -O3.
    std::string name = std::to_string(v);
    name.insert(0, 1, 'v');
    b.add_vertex(name, Work(rng.uniform_int(1, 12)), Time(1));
  }
  for (std::int64_t u = 0; u < n; ++u) {
    for (std::int64_t v = 0; v < n; ++v) {
      if (rng.chance(u == v ? 0.3 : 0.35)) {
        b.add_edge(static_cast<VertexId>(u), static_cast<VertexId>(v),
                   Time(rng.uniform_int(1, 12)));
      }
    }
  }
  return std::move(b).build();
}

bool has_self_loop(const DrtTask& task) {
  return std::any_of(task.edges().begin(), task.edges().end(),
                     [](const DrtEdge& e) { return e.from == e.to; });
}

TEST(Utilization, StoredValueMatchesSearchAndBruteForce) {
  Rng rng(1406);
  int cyclic = 0;
  int self_loops = 0;
  int multi_scc = 0;
  int integer_at_least_one = 0;
  int below_one = 0;
  for (int trial = 0; trial < 800; ++trial) {
    const DrtTask task = random_graph(rng);
    const auto stored = utilization(task);
    const auto searched = detail::max_cycle_ratio(task);
    ASSERT_EQ(stored, searched) << "trial " << trial;
    if (!stored) {
      EXPECT_FALSE(task.is_cyclic()) << "trial " << trial;
      continue;
    }
    // Every search ends on an exact zero-cycle probe at U itself.
    EXPECT_EQ(*stored, brute_max_cycle_ratio(task)) << "trial " << trial;
    ++cyclic;
    if (has_self_loop(task)) ++self_loops;
    if (strongly_connected_components(task).component_count > 1) {
      ++multi_scc;
    }
    if (stored->is_integer() && *stored >= Rational(1)) {
      ++integer_at_least_one;
    }
    if (*stored < Rational(1)) ++below_one;
  }
  // The corpus covers every shape the search distinguishes.
  EXPECT_GE(cyclic, 500);
  EXPECT_GE(self_loops, 100);
  EXPECT_GE(multi_scc, 100);
  EXPECT_GE(integer_at_least_one, 20);
  EXPECT_GE(below_one, 20);
}

TEST(Utilization, RandomAcyclicTasksHaveNone) {
  Rng rng(77);
  for (int trial = 0; trial < 100; ++trial) {
    DrtBuilder b("dag");
    const auto n = rng.uniform_int(1, 6);
    for (std::int64_t v = 0; v < n; ++v) {
      std::string name = std::to_string(v);  // see random_graph
      name.insert(0, 1, 'v');
      b.add_vertex(name, Work(rng.uniform_int(1, 9)), Time(1));
    }
    // Edges only go forward in index order, so no cycle exists.
    for (std::int64_t u = 0; u < n; ++u) {
      for (std::int64_t v = u + 1; v < n; ++v) {
        if (rng.chance(0.5)) {
          b.add_edge(static_cast<VertexId>(u), static_cast<VertexId>(v),
                     Time(rng.uniform_int(1, 9)));
        }
      }
    }
    const DrtTask task = std::move(b).build();
    EXPECT_FALSE(utilization(task).has_value()) << "trial " << trial;
    EXPECT_FALSE(detail::max_cycle_ratio(task).has_value());
    EXPECT_FALSE(task.utilization_overflowed());
  }
}

TEST(Utilization, EveryBuildPathStoresTheValue) {
  Rng rng(2024);
  DrtGenParams params;
  params.min_vertices = 3;
  params.max_vertices = 6;
  params.min_separation = Time(1);
  params.max_separation = Time(12);
  params.chord_probability = 0.3;
  // wcets clamp at 1, so the first draw overshoots this target and the
  // generator's corrective rescale always rebuilds the task.
  params.target_utilization = 0.01;
  for (int trial = 0; trial < 40; ++trial) {
    const GeneratedTask g = random_drt(rng, params);
    ASSERT_EQ(utilization(g.task),
              std::optional<Rational>(g.exact_utilization));
    EXPECT_EQ(g.exact_utilization, brute_max_cycle_ratio(g.task));

    // Sensitivity's perturbed rebuilds.
    const DrtTask heavier = with_wcet_increase(g.task, 0, Work(5));
    EXPECT_EQ(utilization(heavier), detail::max_cycle_ratio(heavier));
    EXPECT_EQ(*utilization(heavier), brute_max_cycle_ratio(heavier));
    for (std::size_t i = 0; i < g.task.edge_count(); ++i) {
      const Time sep = g.task.edges()[i].separation;
      if (sep <= Time(1)) continue;
      const DrtTask tighter =
          with_separation_decrease(g.task, i, sep - Time(1));
      EXPECT_EQ(utilization(tighter), detail::max_cycle_ratio(tighter));
      EXPECT_EQ(*utilization(tighter), brute_max_cycle_ratio(tighter));
    }

    // scc's per-component sub-tasks: the worst component is the task.
    std::optional<Rational> worst;
    for (const std::optional<Rational>& u : scc_utilizations(g.task)) {
      if (u && (!worst || *worst < *u)) worst = u;
    }
    EXPECT_EQ(worst, utilization(g.task)) << "trial " << trial;
  }
}

TEST(Utilization, CopiesAndMovesKeepTheValue) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const DrtTask task = random_graph(rng);
    const auto u = utilization(task);
    DrtTask copy = task;
    EXPECT_EQ(utilization(copy), u);
    const DrtTask moved = std::move(copy);
    EXPECT_EQ(utilization(moved), u);
    DrtTask assigned = self_loop_unit_task();
    assigned = moved;
    EXPECT_EQ(utilization(assigned), u);
    DrtTask move_assigned = self_loop_unit_task();
    move_assigned = std::move(assigned);
    EXPECT_EQ(utilization(move_assigned), u);
  }
}

TEST(Utilization, OverflowIsRecordedAtBuildAndThrownOnRead) {
  constexpr std::int64_t kHuge = std::int64_t{1} << 62;
  DrtBuilder b("huge");
  const VertexId a = b.add_vertex("A", Work(kHuge), Time(kHuge));
  b.add_edge(a, a, Time(3));
  const DrtTask task = std::move(b).build();  // does not throw
  EXPECT_TRUE(task.utilization_overflowed());
  EXPECT_THROW((void)utilization(task), OverflowError);
  EXPECT_THROW((void)detail::max_cycle_ratio(task), OverflowError);
  // The flag travels with copies and moves too.
  DrtTask copy = task;
  EXPECT_TRUE(copy.utilization_overflowed());
  const DrtTask moved = std::move(copy);
  EXPECT_THROW((void)utilization(moved), OverflowError);
}

TEST(Utilization, LargeButRepresentableMagnitudesStayExact) {
  // One wcet near 2^31 on a two-cycle: U = (w + 1) / (s1 + s2) needs a
  // long Stern-Brocot descent but no intermediate leaves int64.
  const std::int64_t w = (std::int64_t{1} << 31) - 1;
  DrtBuilder b("big");
  const VertexId a = b.add_vertex("A", Work(w), Time(1));
  const VertexId c = b.add_vertex("B", Work(1), Time(1));
  b.add_edge(a, c, Time(999983)).add_edge(c, a, Time(1000003));
  const DrtTask task = std::move(b).build();
  EXPECT_FALSE(task.utilization_overflowed());
  EXPECT_EQ(utilization(task), std::optional<Rational>(
                                   Rational(w + 1, 999983 + 1000003)));
}

DrtTask self_loop_task(std::int64_t wcet, std::int64_t sep) {
  DrtBuilder b("long");
  const VertexId a = b.add_vertex("A", Work(wcet), Time(wcet));
  b.add_edge(a, a, Time(sep));
  return std::move(b).build();
}

TEST(Utilization, LongMediantRunsAreExact) {
  // Each U below ends a Stern-Brocot run of 2^20 to 2^40 same-direction
  // steps; the search must return it exactly without walking the run.
  constexpr std::int64_t k20 = std::int64_t{1} << 20;
  constexpr std::int64_t k40 = std::int64_t{1} << 40;
  struct Case {
    std::int64_t wcet;
    std::int64_t sep;
    Rational u;
  };
  const Case cases[] = {
      {1, k40, Rational(1, k40)},
      {k40, 1, Rational(k40)},
      {k20 + 1, k20, Rational(1) + Rational(1, k20)},
  };
  for (const Case& c : cases) {
    const DrtTask task = self_loop_task(c.wcet, c.sep);
    EXPECT_FALSE(task.utilization_overflowed()) << c.u;
    EXPECT_EQ(utilization(task), std::optional<Rational>(c.u));
    EXPECT_EQ(*utilization(task), brute_max_cycle_ratio(task));
  }
}

TEST(Utilization, OverflowInsideALongRunIsStillRecorded) {
  // U = 1 + 2^-40: the walk's run toward U reaches probes whose
  // denominator times the wcet leaves int64 (from about 2^23 steps on),
  // so the search overflows, as the step-by-step walk does.
  constexpr std::int64_t k40 = std::int64_t{1} << 40;
  const DrtTask task = self_loop_task(k40 + 1, k40);
  EXPECT_TRUE(task.utilization_overflowed());
  EXPECT_THROW((void)utilization(task), OverflowError);
}

}  // namespace
}  // namespace strt
