#include "svc/service.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "base/assert.hpp"
#include "base/config.hpp"
#include "base/mutex.hpp"
#include "base/thread_annotations.hpp"
#include "engine/workspace.hpp"
#include "exec/exec.hpp"
#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "obs/sink.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "race/hook.hpp"
#include "svc/mpmc_queue.hpp"

namespace strt::svc {

namespace {

using Clock = std::chrono::steady_clock;

/// One admitted request awaiting dispatch.
struct Pending {
  AnalysisRequest req;
  std::promise<AnalysisOutcome> promise;
  Clock::time_point admitted;
  std::optional<Clock::time_point> deadline_at;
  std::uint64_t fp = 0;
};

}  // namespace

std::size_t resolved_shards(const ServiceOptions& opts) {
  return static_cast<std::size_t>(cfg::get_int(
      "STRT_SHARDS", /*def=*/1, /*min=*/1,
      opts.shards != 0 ? std::optional<std::int64_t>(
                             static_cast<std::int64_t>(opts.shards))
                       : std::nullopt));
}

struct Service::Impl {
  /// One worker shard: a lock-free admission ring, the worker thread
  /// that drains it, and the shard's counter rollup.  The mutex guards
  /// no state -- it is the wait barrier for the two condvars (the ring
  /// itself is the synchronized structure): a producer that pushed takes
  /// the lock empty and notifies, so a worker between its emptiness
  /// check and the wait cannot miss the wakeup, and vice versa for
  /// submitters blocked on a full ring.
  struct Shard {
    explicit Shard(std::size_t cap) : ring(cap) {}

    MpmcRing<Pending> ring;
    Mutex mu;
    CondVar cv_work;   // worker: new work / stop
    CondVar cv_space;  // submitters: ring has room
    std::atomic<std::size_t> in_flight{0};
    std::size_t index = 0;  // stable worker identity for the race explorer

    std::atomic<std::uint64_t> submitted{0};
    std::atomic<std::uint64_t> served{0};
    std::atomic<std::uint64_t> batches{0};
    std::atomic<std::uint64_t> batched_requests{0};
    std::atomic<std::uint64_t> deadline_expired{0};

    // Labeled per-shard registry cells (svc.shard_*{shard="K"}); the
    // Prometheus exporter turns the suffix into a real label.
    obs::Counter* c_served = nullptr;
    obs::Counter* c_batches = nullptr;
    obs::Gauge* g_depth = nullptr;

    std::thread worker;  // started by Service's constructor, joined last
  };

  explicit Impl(ServiceOptions o) : opts(std::move(o)), ws(opts.caching) {
    if (opts.queue_capacity == 0) opts.queue_capacity = 1;
    if (opts.max_batch == 0) opts.max_batch = 1;
    nshards = resolved_shards(opts);
    opts.shards = nshards;  // echo the resolution into options()
    per_shard_capacity =
        std::max<std::size_t>(1, opts.queue_capacity / nshards);
    paused.store(opts.start_paused, std::memory_order_release);
    // Warm-start wiring: resolve the snapshot path and the cache budget
    // (flag > STRT_SNAPSHOT / STRT_CACHE_BUDGET env > off), arm the
    // budget first so a loaded snapshot already obeys it, then replay
    // the snapshot into the shared workspace.  Rejection is clean: the
    // service cold-starts and overwrites the bad file at the next save.
    snapshot_path = cfg::get_string(
        "STRT_SNAPSHOT", "",
        opts.snapshot_path.empty()
            ? std::nullopt
            : std::optional<std::string_view>(opts.snapshot_path));
    opts.snapshot_path = snapshot_path;  // echo into options()
    std::string budget_flag;
    if (opts.cache_bytes_budget != 0) {
      budget_flag = std::to_string(opts.cache_bytes_budget);
    }
    opts.cache_bytes_budget = cfg::get_bytes(
        "STRT_CACHE_BUDGET", 0,
        budget_flag.empty() ? std::nullopt
                            : std::optional<std::string_view>(budget_flag));
    if (opts.cache_bytes_budget != 0) {
      ws.set_cache_bytes_budget(opts.cache_bytes_budget);
    }
    if (!snapshot_path.empty()) (void)ws.load_snapshot(snapshot_path);
    if (!opts.telemetry_dir.empty()) {
      sink = std::make_unique<obs::TelemetrySink>(opts.telemetry_dir);
    }
    shards.reserve(nshards);
    for (std::size_t i = 0; i < nshards; ++i) {
      auto s = std::make_unique<Shard>(per_shard_capacity);
      s->index = i;
      const std::string label = "{shard=\"" + std::to_string(i) + "\"}";
      s->c_served = &obs::counter("svc.shard_served" + label);
      s->c_batches = &obs::counter("svc.shard_batches" + label);
      s->g_depth = &obs::gauge("svc.shard_queue_depth" + label);
      shards.push_back(std::move(s));
    }
  }

  ServiceOptions opts;
  engine::Workspace ws;
  /// Resolved warm-start cache path; empty = persistence off.  Saves
  /// are serialized by save_mu (drain() and the destructor may race).
  std::string snapshot_path;
  Mutex save_mu;
  /// Live telemetry export; null when telemetry_dir is empty.  Shard
  /// workers flush after their rounds (the sink serializes flushes).
  std::unique_ptr<obs::TelemetrySink> sink;

  /// Persists the workspace's memo warmth to snapshot_path (crash-safe
  /// tmp+rename; failures are non-fatal -- the service keeps serving).
  void save_snapshot_if_configured() {
    if (snapshot_path.empty()) return;
    const MutexLock lock(save_mu);
    (void)ws.save_snapshot(snapshot_path);
  }

  std::size_t nshards = 1;
  std::size_t per_shard_capacity = 1;
  std::vector<std::unique_ptr<Shard>> shards;

  std::atomic<bool> paused{false};
  std::atomic<bool> stopping{false};
  std::atomic<std::uint64_t> rejected{0};
  /// Admissions currently in progress.  The shutdown protocol relies on
  /// the seq_cst ordering of this counter against `stopping`: an admit
  /// increments first and checks stopping second, the destructor stores
  /// stopping first and waits for zero second, so every push that beat
  /// the stop is visible to the shard workers before they may exit.
  std::atomic<std::size_t> active_admits{0};

  /// Fingerprint -> shard routing.  Distinct fingerprints are assigned
  /// round-robin in order of first appearance: deterministic for a
  /// serial submitter, balanced across shards however the fingerprints
  /// hash (a fp % N split leaves shards idle on modulo collisions).
  /// Entries are ~16 bytes per distinct system and are kept for the
  /// service lifetime -- the memo warmth they route to is itself
  /// retained, so the map is never the memory ceiling.
  Mutex route_mu;
  std::unordered_map<std::uint64_t, std::size_t> route
      STRT_GUARDED_BY(route_mu);
  std::size_t next_shard STRT_GUARDED_BY(route_mu) = 0;

  Mutex idle_mu;  // wait barrier for drain(); no guarded state
  CondVar cv_idle;

  [[nodiscard]] Shard& shard_of(std::uint64_t fp) {
    if (nshards == 1) return *shards[0];
    const MutexLock lock(route_mu);
    const auto [it, inserted] = route.emplace(fp, next_shard);
    if (inserted) next_shard = (next_shard + 1) % nshards;
    return *shards[it->second];
  }

  /// True when every ring is empty and no request is being processed.
  [[nodiscard]] bool idle() const {
    for (const auto& s : shards) {
      if (!s->ring.empty() || s->in_flight.load() != 0) return false;
    }
    return true;
  }

  void worker_loop(Shard& s);
  void process(Shard& s, std::vector<Pending> round);

  /// Admission under the routed shard's capacity bound; nullopt when
  /// `block` is false and the shard is full, or when stopping.
  std::optional<std::future<AnalysisOutcome>> admit(AnalysisRequest req,
                                                    bool block);
};

std::optional<std::future<AnalysisOutcome>> Service::Impl::admit(
    AnalysisRequest req, bool block) {
  static obs::Counter& c_submitted = obs::counter("svc.submitted");
  static obs::Counter& c_rejected = obs::counter("svc.rejected");
  static obs::Counter& c_shed = obs::counter("svc.shed");
  static obs::Gauge& g_depth = obs::gauge("svc.queue_depth");

  Pending p;
  p.admitted = Clock::now();
  if (req.deadline) p.deadline_at = p.admitted + *req.deadline;
  p.fp = request_fingerprint(req);
  p.req = std::move(req);
  std::future<AnalysisOutcome> fut = p.promise.get_future();

  STRT_RACE_ATOMIC("svc.admit.enter", &active_admits, kRmw, kAcqRel);
  active_admits.fetch_add(1);
  struct AdmitScope {
    std::atomic<std::size_t>& active;
    ~AdmitScope() {
      STRT_RACE_ATOMIC("svc.admit.leave", &active, kRmw, kAcqRel);
      active.fetch_sub(1);
    }
  } scope{active_admits};

  const auto reject_stopping = [&] {
    rejected.fetch_add(1, std::memory_order_relaxed);
    c_rejected.add(1);
    // Answer through the future so submit() stays total.
    AnalysisOutcome out;
    out.id = p.req.id;
    out.kind = p.req.kind;
    out.status = OutcomeStatus::kRejected;
    out.error = "service is shutting down";
    p.promise.set_value(std::move(out));
    return std::optional<std::future<AnalysisOutcome>>(std::move(fut));
  };

  STRT_RACE_ATOMIC("svc.admit.stopping", &stopping, kLoad, kAcquire);
  if (stopping.load()) return reject_stopping();

  Shard& s = shard_of(p.fp);
  bool pushed = s.ring.try_push(std::move(p));
  if (!pushed) {
    if (!block) {
      // Full, non-blocking: the caller sheds load.
      rejected.fetch_add(1, std::memory_order_relaxed);
      c_rejected.add(1);
      c_shed.add(1);
      return std::nullopt;
    }
    MutexLock l(s.mu);
    while (!stopping.load() && !(pushed = s.ring.try_push(std::move(p)))) {
      l.wait(s.cv_space);
    }
    if (!pushed) return reject_stopping();
  }

  s.submitted.fetch_add(1, std::memory_order_relaxed);
  c_submitted.add(1);
  // Backpressure visibility: sample the admission-time depth into the
  // gauges (total and per shard) so metrics.prom carries a live queue
  // level plus its high-water mark.
  if (obs::enabled()) {
    std::size_t total = 0;
    for (const auto& sh : shards) total += sh->ring.size_approx();
    g_depth.set(static_cast<std::int64_t>(total));
    s.g_depth->set(static_cast<std::int64_t>(s.ring.size_approx()));
  }
  { const MutexLock l(s.mu); }  // pairs with the worker's check-then-wait
  s.cv_work.notify_one();
  return fut;
}

void Service::Impl::worker_loop(Shard& s) {
  for (;;) {
    {
      MutexLock l(s.mu);
      while (!stopping.load() &&
             (paused.load(std::memory_order_acquire) || s.ring.empty())) {
        l.wait(s.cv_work);
      }
    }
    // Claim the shard busy *before* popping: drain()'s idle() check must
    // never observe the window where requests sit in `round` but neither
    // the ring nor in_flight accounts for them.  The claim is corrected
    // to the real round size below (or released if the round is empty).
    const bool claim_after_pop = STRT_RACE_FAULT("svc.pop_before_claim");
    if (!claim_after_pop) {
      STRT_RACE_ATOMIC("svc.worker.claim", &s.in_flight, kRmw, kAcqRel);
      s.in_flight.fetch_add(1);
    }
    std::vector<Pending> round;
    round.reserve(opts.max_batch);
    {
      Pending p;
      while (round.size() < opts.max_batch && s.ring.try_pop(p)) {
        round.push_back(std::move(p));
      }
    }
    if (claim_after_pop) {
      // Reverted pre-fix logic (regression harness only): the claim
      // lands after the pops, so between them the requests sit in
      // `round` with an empty ring and in_flight == 0 -- a concurrent
      // drain() probing idle() in that window returns early.
      STRT_RACE_HOOK("svc.worker.claim_gap");
      s.in_flight.fetch_add(1);
    }
    const std::size_t n = round.size();
    if (n == 0) {
      s.in_flight.fetch_sub(1);
      // The speculative claim may have parked drain(); re-announce.
      STRT_RACE_HOOK("svc.worker.idle_probe");
      if (idle()) {
        { const MutexLock l(idle_mu); }  // pairs with drain()'s wait
        cv_idle.notify_all();
      }
      STRT_RACE_ATOMIC("svc.worker.stopping", &stopping, kLoad, kAcquire);
      if (stopping.load()) {
        // Exit only once no admission can still push.  active_admits is
        // loaded *first*: it is ordered seq_cst against `stopping` (see
        // its declaration), so a 0 here means every admit that beat the
        // stop has finished its push, and that push is visible to the
        // emptiness check that follows.
        bool can_exit;
        if (STRT_RACE_FAULT("svc.empty_before_admits")) {
          // Reverted pre-fix order (regression harness only): sampling
          // emptiness before the admissions count leaves a window where
          // an in-progress admit pushes after the emptiness check and
          // returns before the count check -- the worker exits and the
          // pushed request is stranded (its promise dies unfulfilled).
          STRT_RACE_HOOK("svc.worker.exit.empty_first");
          const bool empty = s.ring.empty();
          STRT_RACE_HOOK("svc.worker.exit.admits_second");
          can_exit = empty && active_admits.load() == 0;
        } else {
          STRT_RACE_ATOMIC("svc.worker.exit.admits", &active_admits,
                           kLoad, kAcquire);
          const bool no_admits = active_admits.load() == 0;
          STRT_RACE_HOOK("svc.worker.exit.empty");
          can_exit = no_admits && s.ring.empty();
        }
        if (can_exit) return;
        STRT_RACE_HINT_YIELD();
        std::this_thread::yield();
      }
      continue;
    }
    if (n > 1) s.in_flight.fetch_add(n - 1);
    { const MutexLock l(s.mu); }  // pairs with blocked submitters' wait
    s.cv_space.notify_all();

    // Counters go up before the promises are fulfilled: a caller that
    // observes its future resolved must also observe the round in
    // stats() (the promise machinery carries the release edge, so the
    // relaxed add is enough).
    s.served.fetch_add(n, std::memory_order_relaxed);
    s.c_served->add(n);

    process(s, std::move(round));

    s.in_flight.fetch_sub(n);
    if (idle()) {
      { const MutexLock l(idle_mu); }  // pairs with drain()'s wait
      cv_idle.notify_all();
    }
  }
}

void Service::Impl::process(Shard& s, std::vector<Pending> round) {
  static obs::Counter& c_batches = obs::counter("svc.batches");
  static obs::Counter& c_batched = obs::counter("svc.batched_requests");
  const obs::Span span("svc.dispatch");

  // Group the round by fingerprint, preserving arrival order of groups
  // and of members within a group.
  std::vector<std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < round.size(); ++i) {
    bool placed = false;
    for (std::vector<std::size_t>& g : groups) {
      if (round[g.front()].fp == round[i].fp) {
        g.push_back(i);
        placed = true;
        break;
      }
    }
    if (!placed) groups.push_back({i});
  }

  static obs::Histogram& h_batch = obs::histogram("svc.batch_size");

  // With one shard the warm tail fans out across the exec pool; with
  // several, the shards are the parallelism -- concurrent pool runs
  // would serialize on the pool's run lock and only add contention.
  const bool parallel_tail = nshards == 1;

  for (const std::vector<std::size_t>& group : groups) {
    // While this pin lives, memo groups the leader warms for the batch
    // tail are exempt from bytes-budget eviction (no-op without a
    // budget).
    const engine::Workspace::BatchPin pin = ws.pin_batch();
    c_batches.add(1);
    s.c_batches->add(1);
    s.batches.fetch_add(1, std::memory_order_relaxed);
    h_batch.record(group.size());
    if (group.size() >= 2) {
      c_batched.add(group.size());
      s.batched_requests.fetch_add(group.size(),
                                   std::memory_order_relaxed);
    }
    const engine::WorkspaceStats before = ws.stats();

    const auto serve = [&](std::size_t idx, bool leader) {
      Pending& p = round[idx];
      AnalysisOutcome out =
          run_request_at(ws, p.req, p.deadline_at, p.admitted);
      out.stats.batch_size = group.size();
      // The leader's run doubles as the group's memo-warm phase: it
      // populates every shared rbf/dbf/sbf memo before the tail fans
      // out.  Mark it in the trace so batching is visible per request.
      if (leader && group.size() > 1) {
        if (const obs::TraceSpanRecord* run = out.trace.find("run")) {
          obs::TraceSpanRecord warm;
          warm.id = out.trace.spans.size() + 1;  // ids are 1..n per trace
          warm.parent = run->id;
          warm.name = "memo.warm";
          warm.start_us = run->start_us;
          warm.dur_us = run->dur_us;
          warm.attrs = {{"role", "leader"},
                        {"batch.size", std::to_string(group.size())}};
          out.trace.spans.push_back(std::move(warm));
          out.trace.sort_spans();
        }
      }
      return out;
    };

    // The group leader runs first and warms every memo the group shares;
    // the tail then answers mostly from the cache.  Results are
    // bit-identical either way (Workspace contract), so the split is
    // purely a throughput device.
    std::vector<AnalysisOutcome> outs;
    outs.reserve(group.size());
    outs.push_back(serve(group[0], /*leader=*/true));
    if (group.size() > 1) {
      if (parallel_tail) {
        std::vector<AnalysisOutcome> tail =
            exec::parallel_map(group.size() - 1, [&](std::size_t i) {
              return serve(group[i + 1], /*leader=*/false);
            });
        for (AnalysisOutcome& o : tail) outs.push_back(std::move(o));
      } else {
        for (std::size_t i = 1; i < group.size(); ++i) {
          outs.push_back(serve(group[i], /*leader=*/false));
        }
      }
    }

    // Attribute the batch's cache delta to every member, then fulfill.
    const engine::WorkspaceStats after = ws.stats();
    const std::uint64_t hits = after.hits - before.hits;
    const std::uint64_t misses = after.misses - before.misses;
    std::uint64_t expired = 0;
    for (std::size_t i = 0; i < group.size(); ++i) {
      outs[i].stats.cache_hits = hits;
      outs[i].stats.cache_misses = misses;
      if (outs[i].status == OutcomeStatus::kDeadlineExpired) ++expired;
    }
    // Like `served`, counters settle before any promise in the group
    // resolves so callers never read stale stats after a get().
    s.deadline_expired.fetch_add(expired, std::memory_order_relaxed);
    for (std::size_t i = 0; i < group.size(); ++i) {
      if (sink) sink->add_trace(outs[i].trace);
      round[group[i]].promise.set_value(std::move(outs[i]));
    }
  }
  if (sink) sink->flush();
}

Service::Service(ServiceOptions opts)
    : impl_(std::make_unique<Impl>(std::move(opts))) {
  for (auto& s : impl_->shards) {
    Impl::Shard* shard = s.get();
    shard->worker = std::thread([this, shard] {
      // First statement on the new thread: register with an active race
      // explorer under a stable identity (no hooks may precede this).
      STRT_RACE_THREAD("svc.worker", shard->index);
      impl_->worker_loop(*shard);
    });
    // Pair every spawn with an await before any further hook so thread
    // registration order is a pure function of the schedule.
    STRT_RACE_AWAIT_THREAD("svc.worker", shard->index);
  }
}

Service::~Service() {
  STRT_RACE_ATOMIC("svc.stop.store", &impl_->stopping, kStore, kRelease);
  impl_->stopping.store(true);
  impl_->paused.store(false);  // a paused shutdown still drains
  // Wake everyone: blocked submitters observe `stopping` and answer
  // kRejected; workers drain their rings (waiting out in-progress
  // admissions, see active_admits) and exit.
  for (auto& s : impl_->shards) {
    { const MutexLock l(s->mu); }
    s->cv_space.notify_all();
    s->cv_work.notify_all();
  }
  for (auto& s : impl_->shards) {
    STRT_RACE_JOIN(s->worker);
    s->worker.join();
  }
  // Workers are gone and every queued request is answered: write the
  // final warm-start snapshot.
  impl_->save_snapshot_if_configured();
}

std::future<AnalysisOutcome> Service::submit(AnalysisRequest req) {
  std::optional<std::future<AnalysisOutcome>> fut =
      impl_->admit(std::move(req), /*block=*/true);
  STRT_ASSERT(fut.has_value(), "blocking admission always yields a future");
  return std::move(*fut);
}

std::optional<std::future<AnalysisOutcome>> Service::try_submit(
    AnalysisRequest req) {
  return impl_->admit(std::move(req), /*block=*/false);
}

std::vector<AnalysisOutcome> Service::run_all(
    std::vector<AnalysisRequest> reqs) {
  // Admission would deadlock if the batch exceeds a paused shard's
  // capacity (every request could route to one shard); resume first in
  // that case, otherwise keep the pause while enqueueing so a paused
  // service sees the whole batch in one round.
  if (impl_->paused.load() && reqs.size() > impl_->per_shard_capacity) {
    resume();
  }
  std::vector<std::future<AnalysisOutcome>> futs;
  futs.reserve(reqs.size());
  for (AnalysisRequest& r : reqs) futs.push_back(submit(std::move(r)));
  resume();
  std::vector<AnalysisOutcome> outs;
  outs.reserve(futs.size());
  for (std::future<AnalysisOutcome>& f : futs) outs.push_back(f.get());
  return outs;
}

void Service::pause() { impl_->paused.store(true); }

void Service::resume() {
  impl_->paused.store(false);
  for (auto& s : impl_->shards) {
    { const MutexLock l(s->mu); }
    s->cv_work.notify_all();
  }
}

void Service::drain() {
  resume();
  {
    MutexLock l(impl_->idle_mu);
    // The explorer preempts here so a worker's pop-to-claim window (if
    // faulted back in) can land exactly under this idle() probe.
    STRT_RACE_HOOK("svc.drain.probe");
    while (!impl_->idle()) l.wait(impl_->cv_idle);
  }
  // Quiesced: persist the accumulated memo warmth (periodic save point;
  // the destructor saves once more at shutdown).
  impl_->save_snapshot_if_configured();
}

engine::Workspace& Service::workspace() { return impl_->ws; }

std::size_t Service::shard_count() const { return impl_->nshards; }

ServiceStats Service::stats() const {
  ServiceStats out;
  out.rejected = impl_->rejected.load(std::memory_order_relaxed);
  out.per_shard.reserve(impl_->nshards);
  for (const auto& s : impl_->shards) {
    ShardStats sh;
    sh.submitted = s->submitted.load(std::memory_order_relaxed);
    sh.served = s->served.load(std::memory_order_relaxed);
    sh.batches = s->batches.load(std::memory_order_relaxed);
    sh.batched_requests =
        s->batched_requests.load(std::memory_order_relaxed);
    sh.deadline_expired =
        s->deadline_expired.load(std::memory_order_relaxed);
    sh.queue_depth = s->ring.size_approx();
    out.submitted += sh.submitted;
    out.served += sh.served;
    out.batches += sh.batches;
    out.batched_requests += sh.batched_requests;
    out.deadline_expired += sh.deadline_expired;
    out.queue_depth += sh.queue_depth;
    out.per_shard.push_back(sh);
  }
  return out;
}

const ServiceOptions& Service::options() const { return impl_->opts; }

}  // namespace strt::svc
