#include "exec/exec.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <memory>
#include <thread>

#include "base/config.hpp"
#include "base/mutex.hpp"
#include "base/thread_annotations.hpp"
#include "obs/counters.hpp"
#include "obs/span.hpp"

namespace strt::exec {

namespace {

thread_local bool t_inside_parallel = false;

std::size_t default_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<std::size_t>(
      cfg::get_int("STRT_THREADS", /*def=*/hw == 0 ? 1 : hw, /*min=*/1));
}

/// One participant's slice of the iteration space.  The owner pops from
/// the front, thieves take the back half; both paths lock `mu` for a few
/// instructions only.
struct Block {
  Mutex mu;
  std::size_t next STRT_GUARDED_BY(mu) = 0;
  std::size_t end STRT_GUARDED_BY(mu) = 0;
};

/// Shared state of one parallel_for run.  Heap-allocated and reference-
/// counted so a worker that wakes late (after the caller returned) still
/// holds valid memory.
struct Job {
  explicit Job(std::size_t n_, std::size_t participants)
      : n(n_), blocks(participants) {
    const std::size_t per = n / participants;
    std::size_t lo = 0;
    for (std::size_t p = 0; p < participants; ++p) {
      // Spread the n % participants leftover one-per-block from the front.
      const std::size_t hi = lo + per + (p < n % participants ? 1 : 0);
      const MutexLock lock(blocks[p].mu);
      blocks[p].next = lo;
      blocks[p].end = hi;
      lo = hi;
    }
  }

  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t n = 0;
  /// The caller's trace position: every item runs under it, whichever
  /// thread claims it.
  obs::TracePosition trace;
  std::vector<Block> blocks;

  std::atomic<std::uint64_t> steals{0};
  std::atomic<bool> failed{false};
  Mutex error_mu;
  std::exception_ptr error STRT_GUARDED_BY(error_mu);

  Mutex done_mu;
  CondVar done_cv;
  std::size_t finished STRT_GUARDED_BY(done_mu) = 0;

  void record_error(std::exception_ptr e) {
    const MutexLock lock(error_mu);
    if (!error) error = std::move(e);
    failed.store(true, std::memory_order_relaxed);
  }

  /// Reads the first recorded error; call only after every participant is
  /// done (the caller's wait on done_cv is the synchronization point).
  std::exception_ptr take_error() {
    const MutexLock lock(error_mu);
    return error;
  }

  /// Pops the next index of block `p`, or steals the back half of the
  /// fattest other block.  Returns false when the whole space is claimed.
  bool claim(std::size_t& p, std::size_t& idx) {
    {
      const MutexLock lock(blocks[p].mu);
      if (blocks[p].next < blocks[p].end) {
        idx = blocks[p].next++;
        return true;
      }
    }
    for (;;) {
      std::size_t victim = blocks.size();
      std::size_t fattest = 0;
      for (std::size_t v = 0; v < blocks.size(); ++v) {
        if (v == p) continue;
        const MutexLock lock(blocks[v].mu);
        const std::size_t avail = blocks[v].end - blocks[v].next;
        if (avail > fattest) {
          fattest = avail;
          victim = v;
        }
      }
      if (victim == blocks.size()) return false;  // everything claimed
      std::size_t lo;
      std::size_t hi;
      {
        const MutexLock lock(blocks[victim].mu);
        const std::size_t avail = blocks[victim].end - blocks[victim].next;
        if (avail == 0) continue;  // raced; rescan
        const std::size_t take = (avail + 1) / 2;
        blocks[victim].end -= take;
        lo = blocks[victim].end;
        hi = lo + take;
      }
      // Adopt the detached back half as our own block (one lock at a
      // time -- holding victim + own together could cycle among thieves);
      // later steals from *us* then rebalance further.  Our block is
      // empty, so nobody else writes it between the two sections.
      const MutexLock own(blocks[p].mu);
      blocks[p].next = lo;
      blocks[p].end = hi;
      idx = blocks[p].next++;
      steals.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }

  /// Runs the participant loop for block `p` until the iteration space is
  /// exhausted.  On failure the remaining indices are claimed and dropped
  /// so `finished` still reaches n and the caller wakes exactly once.
  void work(std::size_t p) {
    std::size_t idx = 0;
    while (claim(p, idx)) {
      if (!failed.load(std::memory_order_relaxed)) {
        const obs::TracePositionScope at(trace);
        try {
          (*fn)(idx);
        } catch (...) {
          record_error(std::current_exception());
        }
      }
      const MutexLock lock(done_mu);
      if (++finished == n) done_cv.notify_all();
    }
  }
};

class Pool {
 public:
  static Pool& global() {
    static Pool pool;
    return pool;
  }

  std::size_t threads() {
    const MutexLock lock(config_mu_);
    return configured_;
  }

  void set_threads(std::size_t n) {
    const MutexLock lock(config_mu_);
    join_workers();
    configured_ = n == 0 ? default_thread_count() : n;
  }

  void run(std::size_t n, const std::function<void(std::size_t)>& fn) {
    if (n == 0) return;
    if (t_inside_parallel) {  // nested: the outer loop owns the pool
      for (std::size_t i = 0; i < n; ++i) fn(i);
      return;
    }
    const MutexLock run_lock(run_mu_);
    std::size_t participants;
    {
      const MutexLock lock(config_mu_);
      participants = std::min(configured_, n);
      if (participants > 1) spawn_workers(configured_ - 1);
    }
    if (participants <= 1) {
      t_inside_parallel = true;
      struct Reset {
        ~Reset() { t_inside_parallel = false; }
      } reset;
      for (std::size_t i = 0; i < n; ++i) fn(i);
      return;
    }

    const obs::Span span("parallel_for");
    auto job = std::make_shared<Job>(n, participants);
    job->fn = &fn;
    job->trace = obs::trace_position();
    {
      const MutexLock lock(job_mu_);
      job_ = job;
      ++job_seq_;
    }
    job_cv_.notify_all();

    // The caller is participant 0; workers map themselves onto blocks
    // 1..participants-1 (extra workers start empty and steal).
    t_inside_parallel = true;
    job->work(0);
    t_inside_parallel = false;
    {
      MutexLock lock(job->done_mu);
      while (job->finished != job->n) lock.wait(job->done_cv);
    }
    {
      const MutexLock lock(job_mu_);
      job_.reset();
    }

    static obs::Counter& c_tasks = obs::counter("exec.tasks");
    static obs::Counter& c_steals = obs::counter("exec.steals");
    c_tasks.add(n);
    c_steals.add(job->steals.load(std::memory_order_relaxed));
    if (std::exception_ptr e = job->take_error()) std::rethrow_exception(e);
  }

  ~Pool() {
    const MutexLock lock(config_mu_);
    join_workers();
  }

 private:
  Pool() : configured_(default_thread_count()) {}

  /// Tops the worker set up to `want` threads; workers persist across
  /// runs and park on job_cv_.
  void spawn_workers(std::size_t want) STRT_REQUIRES(config_mu_) {
    while (workers_.size() < want) {
      const std::size_t worker_index = workers_.size();
      workers_.emplace_back([this, worker_index] { worker_loop(worker_index); });
    }
  }

  void join_workers() STRT_REQUIRES(config_mu_) {
    {
      const MutexLock lock(job_mu_);
      stop_ = true;
    }
    job_cv_.notify_all();
    for (std::thread& t : workers_) t.join();
    workers_.clear();
    {
      const MutexLock lock(job_mu_);
      stop_ = false;
    }
  }

  void worker_loop(std::size_t worker_index) {
    t_inside_parallel = true;
    std::uint64_t seen = 0;
    for (;;) {
      std::shared_ptr<Job> job;
      std::uint64_t seq;
      {
        MutexLock lock(job_mu_);
        while (!stop_ && (job_ == nullptr || job_seq_ == seen)) {
          lock.wait(job_cv_);
        }
        if (stop_) return;
        job = job_;
        seq = job_seq_;
      }
      seen = seq;
      // Participant index: caller is 0, this worker is worker_index + 1.
      // Workers beyond the participant count sit this run out (their
      // blocks do not exist; n was smaller than the pool).
      const std::size_t p = worker_index + 1;
      if (p < job->blocks.size()) job->work(p);
    }
  }

  Mutex config_mu_;
  std::size_t configured_ STRT_GUARDED_BY(config_mu_);
  std::vector<std::thread> workers_ STRT_GUARDED_BY(config_mu_);

  Mutex run_mu_;  // one parallel_for at a time

  Mutex job_mu_;
  CondVar job_cv_;
  std::shared_ptr<Job> job_ STRT_GUARDED_BY(job_mu_);
  std::uint64_t job_seq_ STRT_GUARDED_BY(job_mu_) = 0;
  bool stop_ STRT_GUARDED_BY(job_mu_) = false;
};

}  // namespace

std::size_t thread_count() { return Pool::global().threads(); }

void set_thread_count(std::size_t n) { Pool::global().set_threads(n); }

bool inside_parallel_region() { return t_inside_parallel; }

void parallel_for(std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  Pool::global().run(n, fn);
}

}  // namespace strt::exec
