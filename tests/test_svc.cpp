// strt::svc -- the sharded batch analysis service and unified request
// API.
//
// Pins the service's core contracts: outcomes are bit-identical to
// one-shot run_request() on a private workspace for every analysis kind
// and for every shard count, the bounded admission rings exert
// backpressure, wall-clock deadlines and CancelTokens stop requests
// before and during a run, fingerprint batching attributes the workspace
// cache delta to every member of a batch, same-fingerprint requests land
// on one shard (so batching survives sharding), and concurrent
// submitters racing drain() and destruction never lose or hang a
// request.  Tests that depend on exact queue capacities pin shards
// explicitly, so the suite holds under any STRT_SHARDS (the CI matrix
// runs it with STRT_SHARDS=4).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "engine/workspace.hpp"
#include "graph/drt.hpp"
#include "model/generator.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "svc/api.hpp"
#include "svc/request_stream.hpp"
#include "svc/service.hpp"

namespace strt::svc {
namespace {

std::vector<DrtTask> random_set(std::uint64_t seed, std::size_t set_size,
                                double total_util) {
  Rng rng = Rng::split(seed, 0);
  DrtGenParams params;
  params.min_vertices = 2;
  params.max_vertices = 4;
  params.min_separation = Time(6);
  params.max_separation = Time(24);
  auto gen = random_drt_set(rng, set_size, total_util, params);
  std::vector<DrtTask> tasks;
  for (auto& g : gen) tasks.push_back(std::move(g.task));
  return tasks;
}

AnalysisRequest request_of_kind(AnalysisKind kind, std::uint64_t id,
                                std::uint64_t seed) {
  AnalysisRequest req;
  req.id = id;
  req.kind = kind;
  req.supply = Supply::tdma(Time(7), Time(10));
  const bool single = kind == AnalysisKind::kStructural ||
                      kind == AnalysisKind::kSensitivity;
  req.tasks = random_set(seed, single ? 1 : 3, single ? 0.3 : 0.6);
  return req;
}

/// True when `ancestor_id` is on `span`'s parent chain.  With STRT_OBS=1
/// the plain obs::Span phase markers record into request traces too (e.g.
/// a "svc.request" span slots in between "request" and "validate"), so
/// structural assertions walk ancestry instead of direct parenthood.
bool has_ancestor(const obs::RequestTrace& trace,
                  const obs::TraceSpanRecord& span,
                  std::uint64_t ancestor_id) {
  std::uint64_t parent = span.parent;
  while (parent != 0) {
    if (parent == ancestor_id) return true;
    const obs::TraceSpanRecord* next = nullptr;
    for (const obs::TraceSpanRecord& s : trace.spans) {
      if (s.id == parent) {
        next = &s;
        break;
      }
    }
    if (next == nullptr) return false;
    parent = next->parent;
  }
  return false;
}

/// Field-by-field equality of two outcomes (the result variant included).
void expect_same_outcome(const AnalysisOutcome& a, const AnalysisOutcome& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.error, b.error);
  EXPECT_EQ(a.diagnostics.to_json(), b.diagnostics.to_json());
  ASSERT_EQ(a.result.index(), b.result.index());
  if (const StructuralResult* sa = a.structural()) {
    const StructuralResult* sb = b.structural();
    EXPECT_EQ(sa->delay, sb->delay);
    EXPECT_EQ(sa->backlog, sb->backlog);
    EXPECT_EQ(sa->busy_window, sb->busy_window);
    EXPECT_EQ(sa->vertex_delays, sb->vertex_delays);
    EXPECT_EQ(sa->meets_vertex_deadlines, sb->meets_vertex_deadlines);
    EXPECT_EQ(sa->stats.generated, sb->stats.generated);
    EXPECT_EQ(sa->stats.expanded, sb->stats.expanded);
  }
  if (const FpResult* fa = a.fp()) {
    const FpResult* fb = b.fp();
    EXPECT_EQ(fa->overloaded, fb->overloaded);
    EXPECT_EQ(fa->system_busy_window, fb->system_busy_window);
    ASSERT_EQ(fa->tasks.size(), fb->tasks.size());
    for (std::size_t i = 0; i < fa->tasks.size(); ++i) {
      EXPECT_EQ(fa->tasks[i].structural_delay,
                fb->tasks[i].structural_delay);
      EXPECT_EQ(fa->tasks[i].curve_delay, fb->tasks[i].curve_delay);
      EXPECT_EQ(fa->tasks[i].busy_window, fb->tasks[i].busy_window);
    }
  }
  if (const EdfResult* ea = a.edf()) {
    const EdfResult* eb = b.edf();
    EXPECT_EQ(ea->schedulable, eb->schedulable);
    EXPECT_EQ(ea->overloaded, eb->overloaded);
    EXPECT_EQ(ea->margin, eb->margin);
    EXPECT_EQ(ea->horizon_checked, eb->horizon_checked);
  }
  if (const JointFpResult* ja = a.joint_fp()) {
    const JointFpResult* jb = b.joint_fp();
    EXPECT_EQ(ja->overloaded, jb->overloaded);
    EXPECT_EQ(ja->joint_delay, jb->joint_delay);
    EXPECT_EQ(ja->rbf_delay, jb->rbf_delay);
    EXPECT_EQ(ja->paths_analyzed, jb->paths_analyzed);
  }
  if (const SensitivityReport* ra = a.sensitivity()) {
    const SensitivityReport* rb = b.sensitivity();
    EXPECT_EQ(ra->feasible, rb->feasible);
    EXPECT_EQ(ra->wcet_slack, rb->wcet_slack);
    EXPECT_EQ(ra->separation_slack, rb->separation_slack);
  }
  if (const AudsleyResult* ua = a.audsley()) {
    const AudsleyResult* ub = b.audsley();
    EXPECT_EQ(ua->feasible, ub->feasible);
    EXPECT_EQ(ua->order, ub->order);
    EXPECT_EQ(ua->tests_run, ub->tests_run);
  }
}

TEST(SvcApi, KindNamesRoundTrip) {
  for (const AnalysisKind k : kAllAnalysisKinds) {
    const auto back = kind_from_name(kind_name(k));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, k);
  }
  EXPECT_FALSE(kind_from_name("holistic").has_value());
}

TEST(SvcApi, InvalidArityIsRejectedWithoutRunning) {
  AnalysisRequest req = request_of_kind(AnalysisKind::kStructural, 1, 10);
  req.tasks.push_back(req.tasks[0]);  // structural takes exactly one task
  const AnalysisOutcome out = run_request(req);
  EXPECT_EQ(out.status, OutcomeStatus::kInvalid);
  EXPECT_TRUE(std::holds_alternative<std::monostate>(out.result));
  EXPECT_FALSE(out.error.empty());
}

TEST(SvcApi, LintErrorsYieldInvalidWithDiagnostics) {
  DrtBuilder b("bad");
  const VertexId v = b.add_vertex("A", Work(9), Time(4));  // wcet > deadline
  b.add_edge(v, v, Time(10));
  AnalysisRequest req;
  req.kind = AnalysisKind::kStructural;
  req.tasks = {std::move(b).build()};
  const AnalysisOutcome out = run_request(req);
  EXPECT_EQ(out.status, OutcomeStatus::kInvalid);
  EXPECT_TRUE(out.diagnostics.has("drt.wcet-exceeds-deadline"));
}

TEST(SvcService, OutcomesBitIdenticalToOneShotAcrossKinds) {
  ServiceOptions sopts;
  sopts.max_batch = 16;
  Service service(sopts);
  std::vector<AnalysisRequest> reqs;
  std::uint64_t id = 0;
  for (int round = 0; round < 3; ++round) {
    for (const AnalysisKind k : kAllAnalysisKinds) {
      ++id;
      reqs.push_back(request_of_kind(k, id, 7000 + 13 * id));
    }
  }
  const std::vector<AnalysisOutcome> served = service.run_all(reqs);
  ASSERT_EQ(served.size(), reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    engine::Workspace cold;
    const AnalysisOutcome direct = run_request(cold, reqs[i]);
    EXPECT_EQ(served[i].id, reqs[i].id);
    expect_same_outcome(served[i], direct);
  }
}

TEST(SvcService, BackpressureShedsLoadWhenQueueIsFull) {
  ServiceOptions sopts;
  sopts.queue_capacity = 2;
  sopts.shards = 1;  // the capacity bound below is per shard
  sopts.start_paused = true;
  Service service(sopts);
  const AnalysisRequest req =
      request_of_kind(AnalysisKind::kStructural, 9, 42);

  auto f1 = service.try_submit(req);
  auto f2 = service.try_submit(req);
  ASSERT_TRUE(f1.has_value());
  ASSERT_TRUE(f2.has_value());
  // Queue full and dispatch paused: the third submission is shed.
  auto f3 = service.try_submit(req);
  EXPECT_FALSE(f3.has_value());
  EXPECT_EQ(service.stats().rejected, 1u);
  EXPECT_EQ(service.stats().queue_depth, 2u);

  service.resume();
  EXPECT_EQ(f1->get().status, OutcomeStatus::kOk);
  EXPECT_EQ(f2->get().status, OutcomeStatus::kOk);
  service.drain();
  EXPECT_EQ(service.stats().served, 2u);
  EXPECT_EQ(service.stats().submitted, 2u);
}

TEST(SvcService, DeadlineExpiresInQueue) {
  ServiceOptions sopts;
  sopts.start_paused = true;
  Service service(sopts);
  AnalysisRequest req = request_of_kind(AnalysisKind::kStructural, 5, 77);
  req.deadline = std::chrono::milliseconds(1);
  auto fut = service.submit(std::move(req));
  // Hold the request in the paused queue until its budget is gone.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  service.resume();
  const AnalysisOutcome out = fut.get();
  EXPECT_EQ(out.status, OutcomeStatus::kDeadlineExpired);
  EXPECT_TRUE(std::holds_alternative<std::monostate>(out.result));
  service.drain();
  EXPECT_EQ(service.stats().deadline_expired, 1u);
}

TEST(SvcApi, CancelTokenStopsARunMidExploration) {
  AnalysisRequest req = request_of_kind(AnalysisKind::kStructural, 6, 91);
  CancelToken token;
  req.cancel = token;
  req.common.progress_every = 1;  // check the token at every expansion
  std::atomic<std::uint64_t> calls{0};
  req.common.on_progress = [&](const ExploreProgress&) {
    if (++calls >= 3) token.cancel();
    return true;
  };
  const AnalysisOutcome out = run_request(req);
  EXPECT_EQ(out.status, OutcomeStatus::kCancelled);
  EXPECT_GE(calls.load(), 3u);
}

TEST(SvcApi, PreCancelledTokenSkipsTheRun) {
  AnalysisRequest req = request_of_kind(AnalysisKind::kEdf, 7, 55);
  CancelToken token;
  token.cancel();
  req.cancel = token;
  const AnalysisOutcome out = run_request(req);
  EXPECT_EQ(out.status, OutcomeStatus::kCancelled);
  EXPECT_TRUE(std::holds_alternative<std::monostate>(out.result));
}

TEST(SvcService, FingerprintBatchingSharesTheCacheDelta) {
  ServiceOptions sopts;
  sopts.start_paused = true;
  sopts.max_batch = 8;
  Service service(sopts);

  // Four requests over one task system: same fingerprint, one batch.
  const AnalysisRequest seed =
      request_of_kind(AnalysisKind::kStructural, 0, 4242);
  std::vector<std::future<AnalysisOutcome>> futs;
  for (std::uint64_t id = 1; id <= 4; ++id) {
    AnalysisRequest req = seed;
    req.id = id;
    futs.push_back(service.submit(std::move(req)));
  }
  service.resume();
  service.drain();

  std::vector<AnalysisOutcome> outs;
  for (auto& f : futs) outs.push_back(f.get());
  const std::uint64_t key = outs[0].stats.batch_key;
  for (const AnalysisOutcome& out : outs) {
    EXPECT_EQ(out.status, OutcomeStatus::kOk);
    EXPECT_EQ(out.stats.batch_key, key);
    EXPECT_EQ(out.stats.batch_size, 4u);
    // The batch's cache delta is attributed to every member: the leader
    // warmed the memos, so the batch as a whole must have hit the cache.
    EXPECT_GT(out.stats.cache_hits, 0u);
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.batched_requests, 4u);

  // The shared workspace saw real hits too (service-wide numbers).
  EXPECT_GT(service.workspace().stats().hits, 0u);
}

TEST(SvcService, DistinctFingerprintsDoNotBatch) {
  ServiceOptions sopts;
  sopts.start_paused = true;
  Service service(sopts);
  std::vector<std::future<AnalysisOutcome>> futs;
  for (std::uint64_t id = 1; id <= 3; ++id) {
    futs.push_back(service.submit(
        request_of_kind(AnalysisKind::kStructural, id, 100 + id)));
  }
  service.resume();
  service.drain();
  for (auto& f : futs) {
    const AnalysisOutcome out = f.get();
    EXPECT_EQ(out.status, OutcomeStatus::kOk);
    EXPECT_EQ(out.stats.batch_size, 1u);
  }
  EXPECT_EQ(service.stats().batches, 3u);
  EXPECT_EQ(service.stats().batched_requests, 0u);
}

TEST(SvcService, ShardedOutcomesBitIdenticalToSingleShard) {
  std::vector<AnalysisRequest> reqs;
  std::uint64_t id = 0;
  for (int round = 0; round < 2; ++round) {
    for (const AnalysisKind k : kAllAnalysisKinds) {
      ++id;
      reqs.push_back(request_of_kind(k, id, 5000 + 11 * id));
    }
  }

  std::vector<AnalysisOutcome> one;
  {
    ServiceOptions sopts;
    sopts.shards = 1;
    Service service(sopts);
    one = service.run_all(reqs);
  }
  std::vector<AnalysisOutcome> four;
  {
    ServiceOptions sopts;
    sopts.shards = 4;
    Service service(sopts);
    EXPECT_EQ(service.shard_count(), 4u);
    four = service.run_all(reqs);
    // The per-shard rollup covers every shard and sums to the totals.
    const ServiceStats stats = service.stats();
    ASSERT_EQ(stats.per_shard.size(), 4u);
    std::uint64_t served = 0;
    for (const ShardStats& sh : stats.per_shard) served += sh.served;
    EXPECT_EQ(served, stats.served);
    EXPECT_EQ(stats.served, reqs.size());
  }
  ASSERT_EQ(one.size(), four.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    expect_same_outcome(one[i], four[i]);
  }
}

TEST(SvcService, SameFingerprintLandsOnOneShardAndStillBatches) {
  ServiceOptions sopts;
  sopts.shards = 4;
  sopts.start_paused = true;
  sopts.max_batch = 8;
  Service service(sopts);

  const AnalysisRequest seed =
      request_of_kind(AnalysisKind::kStructural, 0, 6161);
  std::vector<std::future<AnalysisOutcome>> futs;
  for (std::uint64_t id = 1; id <= 4; ++id) {
    AnalysisRequest req = seed;
    req.id = id;
    futs.push_back(service.submit(std::move(req)));
  }
  service.resume();
  service.drain();
  for (auto& f : futs) {
    const AnalysisOutcome out = f.get();
    EXPECT_EQ(out.status, OutcomeStatus::kOk);
    // All four share one fingerprint, so routing put them on one shard
    // and that shard's round batched them.
    EXPECT_EQ(out.stats.batch_size, 4u);
  }
  const ServiceStats stats = service.stats();
  std::size_t owning_shards = 0;
  for (const ShardStats& sh : stats.per_shard) {
    if (sh.submitted > 0) {
      ++owning_shards;
      EXPECT_EQ(sh.submitted, 4u);
      EXPECT_EQ(sh.served, 4u);
    }
  }
  EXPECT_EQ(owning_shards, 1u);
  EXPECT_EQ(stats.batched_requests, 4u);
}

TEST(SvcService, DistinctFingerprintsSpreadRoundRobinAcrossShards) {
  ServiceOptions sopts;
  sopts.shards = 4;
  Service service(sopts);
  std::vector<AnalysisRequest> reqs;
  for (std::uint64_t id = 1; id <= 8; ++id) {
    reqs.push_back(request_of_kind(AnalysisKind::kStructural, id, 200 + id));
  }
  const std::vector<AnalysisOutcome> outs = service.run_all(reqs);
  for (const AnalysisOutcome& out : outs) {
    EXPECT_EQ(out.status, OutcomeStatus::kOk);
  }
  // Eight distinct fingerprints, round-robin assignment: two per shard
  // (a hash-modulo split could leave shards idle; assignment order must
  // not).
  const ServiceStats stats = service.stats();
  ASSERT_EQ(stats.per_shard.size(), 4u);
  for (const ShardStats& sh : stats.per_shard) {
    EXPECT_EQ(sh.submitted, 2u);
    EXPECT_EQ(sh.served, 2u);
  }
}

TEST(SvcService, ShedAndQueueDepthAreVisibleInTheRegistry) {
  obs::Registry::global().reset();
  obs::set_enabled(true);
  {
    ServiceOptions sopts;
    sopts.queue_capacity = 2;
    sopts.shards = 1;
    sopts.start_paused = true;
    Service service(sopts);
    const AnalysisRequest req =
        request_of_kind(AnalysisKind::kStructural, 1, 31);
    auto f1 = service.try_submit(req);
    auto f2 = service.try_submit(req);
    auto f3 = service.try_submit(req);  // shed: full + paused
    ASSERT_TRUE(f1.has_value());
    ASSERT_TRUE(f2.has_value());
    EXPECT_FALSE(f3.has_value());
    service.resume();
    service.drain();
  }
  std::uint64_t shed = 0;
  for (const obs::CounterSample& c : obs::Registry::global().counters()) {
    if (c.name == "svc.shed") shed = c.value;
  }
  EXPECT_EQ(shed, 1u);
  // The depth gauge was sampled at admission while both requests were
  // queued behind the pause; its high-water mark caught that.
  std::int64_t depth_max = -1;
  bool saw_shard_gauge = false;
  for (const obs::GaugeSample& g : obs::Registry::global().gauges()) {
    if (g.name == "svc.queue_depth") depth_max = g.max_value;
    if (g.name == "svc.shard_queue_depth{shard=\"0\"}") {
      saw_shard_gauge = true;
    }
  }
  EXPECT_GE(depth_max, 2);
  EXPECT_TRUE(saw_shard_gauge);
  obs::set_enabled(false);
  obs::Registry::global().reset();
}

TEST(SvcService, StressConcurrentSubmittersSurviveDrainAndShutdown) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 12;
  ServiceOptions sopts;
  sopts.shards = 4;
  sopts.queue_capacity = 16;
  sopts.max_batch = 8;

  // Four distinct systems, so routing and batching both engage.
  std::vector<AnalysisRequest> protos;
  for (std::uint64_t i = 0; i < 4; ++i) {
    protos.push_back(
        request_of_kind(AnalysisKind::kStructural, i, 9000 + i));
  }

  std::vector<std::vector<std::future<AnalysisOutcome>>> per_thread(
      kThreads);
  std::atomic<std::uint64_t> shed{0};
  {
    Service service(sopts);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t i = 0; i < kPerThread; ++i) {
          AnalysisRequest req = protos[(t + i) % protos.size()];
          req.id = 1 + t * kPerThread + i;
          if (i % 3 == 0) {
            if (auto f = service.try_submit(std::move(req))) {
              per_thread[t].push_back(std::move(*f));
            } else {
              shed.fetch_add(1);
            }
          } else {
            per_thread[t].push_back(service.submit(std::move(req)));
          }
        }
      });
    }
    // Drain while the submitters are still hammering admission: must not
    // deadlock, and must still see a momentarily idle service.
    service.drain();
    for (std::thread& th : threads) th.join();
    service.drain();

    std::uint64_t admitted = 0;
    for (const auto& futs : per_thread) admitted += futs.size();
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.submitted, admitted);
    EXPECT_EQ(stats.served, admitted);
    EXPECT_EQ(stats.rejected, shed.load());
  }
  // Every admitted request resolved kOk -- none lost across the races.
  for (auto& futs : per_thread) {
    for (auto& f : futs) {
      EXPECT_EQ(f.get().status, OutcomeStatus::kOk);
    }
  }

  // Destruction with work still queued: a paused service is destroyed
  // with full rings; the destructor serves everything before joining.
  std::vector<std::future<AnalysisOutcome>> queued;
  {
    ServiceOptions paused = sopts;
    paused.start_paused = true;
    Service service(paused);
    for (std::uint64_t i = 0; i < 8; ++i) {
      AnalysisRequest req = protos[i % protos.size()];
      req.id = 100 + i;
      queued.push_back(service.submit(std::move(req)));
    }
  }
  for (auto& f : queued) {
    EXPECT_EQ(f.get().status, OutcomeStatus::kOk);
  }
}

TEST(SvcApi, OutcomeCarriesQueueValidateRunSpans) {
  const AnalysisRequest req =
      request_of_kind(AnalysisKind::kStructural, 9, 555);
  const AnalysisOutcome out = run_request(req);
  ASSERT_EQ(out.status, OutcomeStatus::kOk);

  ASSERT_FALSE(out.trace.empty());
  EXPECT_NE(out.trace.trace_id, 0u);
  const obs::TraceSpanRecord* queue = out.trace.find("queue");
  const obs::TraceSpanRecord* request = out.trace.find("request");
  const obs::TraceSpanRecord* validate = out.trace.find("validate");
  const obs::TraceSpanRecord* run = out.trace.find("run");
  ASSERT_NE(queue, nullptr);
  ASSERT_NE(request, nullptr);
  ASSERT_NE(validate, nullptr);
  ASSERT_NE(run, nullptr);

  // queue and request are timeline roots; validate/run nest under the
  // request span, in that order.
  EXPECT_EQ(queue->parent, 0u);
  EXPECT_EQ(request->parent, 0u);
  EXPECT_TRUE(has_ancestor(out.trace, *validate, request->id));
  EXPECT_TRUE(has_ancestor(out.trace, *run, request->id));
  EXPECT_LE(validate->start_us, run->start_us);

  // One-shot runs never queue: the span is empty and so is the stat.
  EXPECT_EQ(queue->dur_us, 0);
  EXPECT_EQ(out.stats.queue_us, 0);
  EXPECT_GE(out.stats.run_us, 0);
}

TEST(SvcApi, FrontGateOutcomesStillCarryTheSpanTree) {
  AnalysisRequest req = request_of_kind(AnalysisKind::kStructural, 1, 10);
  req.tasks.push_back(req.tasks[0]);  // arity violation: kInvalid
  const AnalysisOutcome out = run_request(req);
  ASSERT_EQ(out.status, OutcomeStatus::kInvalid);
  EXPECT_NE(out.trace.find("queue"), nullptr);
  EXPECT_NE(out.trace.find("validate"), nullptr);
  EXPECT_NE(out.trace.find("run"), nullptr);
}

TEST(SvcService, ServedOutcomesMeasureQueueWaitAndMarkTheLeader) {
  ServiceOptions sopts;
  sopts.start_paused = true;
  sopts.max_batch = 8;
  Service service(sopts);

  const AnalysisRequest seed =
      request_of_kind(AnalysisKind::kStructural, 0, 4242);
  std::vector<std::future<AnalysisOutcome>> futs;
  for (std::uint64_t id = 1; id <= 3; ++id) {
    AnalysisRequest req = seed;
    req.id = id;
    futs.push_back(service.submit(std::move(req)));
  }
  service.resume();
  service.drain();

  bool saw_leader = false;
  for (auto& f : futs) {
    const AnalysisOutcome out = f.get();
    ASSERT_EQ(out.status, OutcomeStatus::kOk);
    const obs::TraceSpanRecord* queue = out.trace.find("queue");
    ASSERT_NE(queue, nullptr);
    // Served requests waited from admission to dispatch; the span and
    // the stat agree.
    EXPECT_GE(out.stats.queue_us, 0);
    EXPECT_EQ(queue->dur_us, out.stats.queue_us);
    if (const obs::TraceSpanRecord* warm = out.trace.find("memo.warm")) {
      saw_leader = true;
      const obs::TraceSpanRecord* run = out.trace.find("run");
      ASSERT_NE(run, nullptr);
      EXPECT_EQ(warm->parent, run->id);
    }
  }
  // Exactly one member of the batch is the leader; its trace carries the
  // memo-warm phase.
  EXPECT_TRUE(saw_leader);
}

TEST(SvcService, BitIdenticalWithTelemetryOnAndOff) {
  std::vector<AnalysisRequest> reqs;
  std::uint64_t id = 0;
  for (const AnalysisKind k : kAllAnalysisKinds) {
    ++id;
    reqs.push_back(request_of_kind(k, id, 300 + 17 * id));
  }

  // Baseline: telemetry off, observability registry off.
  std::vector<AnalysisOutcome> plain;
  {
    Service service{{}};
    plain = service.run_all(reqs);
  }

  // Telemetry on: registry enabled and a sink attached, like
  // strt_serve --telemetry-dir.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "strt_test_svc_telemetry";
  std::filesystem::remove_all(dir);
  obs::set_enabled(true);
  std::vector<AnalysisOutcome> traced;
  {
    ServiceOptions sopts;
    sopts.telemetry_dir = dir.string();
    Service service(sopts);
    traced = service.run_all(reqs);
  }
  obs::set_enabled(false);
  obs::Registry::global().reset();

  // Telemetry must never move an answer.
  ASSERT_EQ(plain.size(), traced.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    expect_same_outcome(plain[i], traced[i]);
  }

  // The sink wrote all three artifacts; the trace file round-trips and
  // covers every request.
  EXPECT_TRUE(std::filesystem::exists(dir / "metrics.prom"));
  EXPECT_TRUE(std::filesystem::exists(dir / "events.jsonl"));
  ASSERT_TRUE(std::filesystem::exists(dir / "trace.json"));
  std::ifstream in(dir / "trace.json");
  std::stringstream buf;
  buf << in.rdbuf();
  const std::vector<obs::RequestTrace> traces =
      obs::parse_chrome_trace(buf.str());
  EXPECT_GE(traces.size(), reqs.size());
  std::filesystem::remove_all(dir);
}

TEST(SvcStream, JsonlRequestRoundTrips) {
  const RequestParse p = parse_request_json(
      R"({"id": 3, "kind": "structural", "supply": "tdma slot 3 cycle 8",)"
      R"( "task": "task t\nvertex A wcet 2 deadline 10\nedge A A sep 10",)"
      R"( "max_states": 1234, "deadline_ms": 250, "want_witness": true,)"
      // A retired knob is ignored like any unknown key.
      R"( "prune": false})",
      1);
  ASSERT_TRUE(p.diagnostics.ok()) << p.diagnostics.to_json();
  ASSERT_TRUE(p.request.has_value());
  EXPECT_EQ(p.request->id, 3u);
  EXPECT_EQ(p.request->kind, AnalysisKind::kStructural);
  EXPECT_EQ(p.request->supply.describe(),
            Supply::tdma(Time(3), Time(8)).describe());
  EXPECT_EQ(p.request->common.max_states, 1234u);
  EXPECT_TRUE(p.request->want_witness);
  ASSERT_TRUE(p.request->deadline.has_value());
  EXPECT_EQ(p.request->deadline->count(), 250);

  const AnalysisOutcome out = run_request(*p.request);
  EXPECT_EQ(out.status, OutcomeStatus::kOk);
  ASSERT_NE(out.structural(), nullptr);
}

TEST(SvcStream, MalformedLinesCollectDiagnostics) {
  EXPECT_TRUE(
      parse_request_json("{not json", 1).diagnostics.has("req.bad-field"));
  EXPECT_TRUE(parse_request_json(R"({"kind": "nope", "task": "task t"})", 2)
                  .diagnostics.has("req.unknown-kind"));
  EXPECT_TRUE(parse_request_json(R"({"kind": "edf"})", 3)
                  .diagnostics.has("req.missing-task"));
  // Task text that fails its own parse surfaces the nested diagnostics.
  const RequestParse p =
      parse_request_json(R"({"kind": "structural", "task": "bogus"})", 4);
  EXPECT_FALSE(p.request.has_value());
  EXPECT_FALSE(p.diagnostics.ok());
}

TEST(SvcStream, UtilizationOverflowLineIsInvalidAndServingContinues) {
  // wcet 2^62 on a self-loop: the exact utilization search overflows
  // int64.  The task still builds; validation answers the request
  // kInvalid and the next line is served normally.
  std::istringstream in(
      R"({"id":1,"kind":"structural","task":"task t\nvertex A wcet )"
      R"(4611686018427387904 deadline 4611686018427387904\nedge A A )"
      R"(sep 3\n","supply":"tdma slot 35 cycle 50"})"
      "\n"
      R"({"id": 2, "kind": "structural", "supply": "tdma slot 3 cycle 8",)"
      R"( "task": "task t\nvertex A wcet 2 deadline 10\nedge A A sep 10"})"
      "\n");
  const std::vector<RequestParse> parses =
      read_request_stream(in, StreamFormat::kJsonl);
  ASSERT_EQ(parses.size(), 2u);

  Service service;
  std::vector<AnalysisOutcome> outcomes;
  for (const RequestParse& p : parses) {
    if (!p.request) {  // rejected while parsing: invalid, as strt_serve does
      AnalysisOutcome out;
      out.status = OutcomeStatus::kInvalid;
      out.diagnostics = p.diagnostics;
      outcomes.push_back(std::move(out));
      continue;
    }
    outcomes.push_back(service.submit(*p.request).get());
  }
  service.drain();
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].status, OutcomeStatus::kInvalid);
  EXPECT_TRUE(outcomes[0].diagnostics.has("drt.utilization-overflow"))
      << outcomes[0].diagnostics.to_json();
  EXPECT_EQ(outcomes[1].status, OutcomeStatus::kOk);
}

TEST(SvcStream, StreamReaderSkipsCommentsAndCountsLines) {
  std::istringstream in(
      "# request stream\n"
      "\n"
      R"({"id": 1, "kind": "edf", "tasks": ["task a\nvertex A wcet 1 )"
      R"(deadline 8\nedge A A sep 8"]})"
      "\n"
      "{broken\n");
  const std::vector<RequestParse> reqs =
      read_request_stream(in, StreamFormat::kJsonl);
  ASSERT_EQ(reqs.size(), 2u);
  EXPECT_TRUE(reqs[0].request.has_value());
  EXPECT_FALSE(reqs[1].request.has_value());
  // Diagnostics carry the physical line number (line 4 is the broken one).
  ASSERT_FALSE(reqs[1].diagnostics.diagnostics().empty());
  EXPECT_EQ(reqs[1].diagnostics.diagnostics()[0].location, "line 4");
}

}  // namespace
}  // namespace strt::svc
