#include "engine/workspace.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <source_location>
#include <stdexcept>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "base/assert.hpp"
#include "base/config.hpp"
#include "base/mutex.hpp"
#include "check/check.hpp"
#include "curves/hull.hpp"
#include "curves/minplus.hpp"
#include "engine/fingerprint.hpp"
#include "graph/workload.hpp"
#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "snapshot/snapshot.hpp"

namespace strt::engine {

namespace {

std::uint64_t ns_since(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

/// Records the nanoseconds the scope took into the histogram `hist()`
/// returns.  When observability is disabled the clock reads (and the
/// histogram's registration) are skipped, so the memo paths keep their
/// one-relaxed-load cost.
class ScopedTimer {
 public:
  using HistogramFn = obs::Histogram& (*)();
  explicit ScopedTimer(HistogramFn hist)
      : hist_(obs::enabled() ? hist : nullptr) {
    if (hist_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() {
    if (hist_ == nullptr) return;
    hist_().record(ns_since(start_));
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  HistogramFn hist_;
  std::chrono::steady_clock::time_point start_;
};

obs::Histogram& lookup_ns() {
  static obs::Histogram& h = obs::histogram("cache.lookup_ns");
  return h;
}
obs::Histogram& lock_wait_ns() {
  static obs::Histogram& h = obs::histogram("cache.lock_wait_ns");
  return h;
}

/// Stripes per memo-table family (power of two; hash & (kStripes - 1)
/// selects).  16 stripes keep the tables effectively contention-free for
/// any plausible shard count while costing ~16 mutexes per family.
inline constexpr std::size_t kStripes = 16;

/// Scoped stripe lock: MutexLock plus acquisition timing into the
/// cache.lock_wait_ns histogram, so striping's effect on contention is
/// measurable (a contended stripe shows up as a fat tail).  Lockdep labels
/// lock-order edges by acquisition site, so the caller passes its memo
/// family's site: a witness chain names the family, and the same-site
/// nesting check sees each family as its own site.
class STRT_SCOPED_CAPABILITY StripeLock {
 public:
  StripeLock(Mutex& mu, const std::source_location& site) STRT_ACQUIRE(mu)
      : mu_(mu) {
    const ScopedTimer wait(lock_wait_ns);
#if STRT_LOCKDEP
    mu_.lock(site);
#else
    (void)site;
    mu_.lock();
#endif
  }
  ~StripeLock() STRT_RELEASE() { mu_.unlock(); }

  StripeLock(const StripeLock&) = delete;
  StripeLock& operator=(const StripeLock&) = delete;

 private:
  Mutex& mu_;
};

/// A per-workspace count (a WorkspaceStats field) mirrored into the
/// process-wide obs counter kName, registered on first use.
template <const char* kName>
class Count {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
    static obs::Counter& c = obs::counter(kName);
    c.add(n);
  }
  /// Releases without counting (cache.bytes counts interned bytes only).
  void sub(std::uint64_t n) { value_.fetch_sub(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t load() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

constexpr char kHits[] = "cache.hits";
constexpr char kMisses[] = "cache.misses";
constexpr char kBytes[] = "cache.bytes";
constexpr char kEvictions[] = "cache.evictions";
constexpr char kEvictedBytes[] = "cache.evicted_bytes";

/// Which of the aggregate tallies -- WorkspaceStats::hits / misses and the
/// cache.hits / cache.misses counters -- a family's lookups feed.
enum class Tally : std::uint8_t {
  kNone,    // interned buckets: family counters only
  kCached,  // lint results: lookups made with caching on
  kAll,     // curve queries: cache-off recomputes count as misses too
};

enum Family : std::size_t {
  kIntern,
  kValidate,
  kRbf,
  kDbf,
  kSbf,
  kDerived,
  kFamilyCount,
};

/// What tells one memo family from another at run time: the name of its
/// cache.<name>.hits / .misses counters, the aggregate tallies it feeds,
/// and the source line lockdep names its stripe acquisitions by (one line
/// per family).
struct FamilySpec {
  const char* name;
  Tally tally;
  std::source_location site;
};

inline constexpr std::array<FamilySpec, kFamilyCount> kFamilies{{
    {"intern", Tally::kNone, std::source_location::current()},
    {"validate", Tally::kCached, std::source_location::current()},
    {"rbf", Tally::kAll, std::source_location::current()},
    {"dbf", Tally::kAll, std::source_location::current()},
    {"sbf", Tally::kAll, std::source_location::current()},
    {"derived", Tally::kAll, std::source_location::current()},
}};

struct FamilyCounters {
  obs::Counter* hits;
  obs::Counter* misses;
};

/// The per-family counters, registered once per process.
const FamilyCounters& family_counters(Family family) {
  static const std::array<FamilyCounters, kFamilyCount> all = [] {
    std::array<FamilyCounters, kFamilyCount> out{};
    for (std::size_t i = 0; i < kFamilyCount; ++i) {
      const std::string base = std::string("cache.") + kFamilies[i].name;
      out[i] = {&obs::counter(base + ".hits"), &obs::counter(base + ".misses")};
    }
    return out;
  }();
  return all[family];
}

/// Memo keys.  Each names its eviction group: a task fingerprint
/// (validation, rbf/dbf horizons), a curve fingerprint (interned storage,
/// derived ops on it), or a supply-description hash (its sbf
/// materializations), so one LRU decision drops a coherent unit of
/// warmth.  The key hash also selects the stripe.
std::uint64_t group_of(std::uint64_t fp) { return fp; }
template <class Key>
std::uint64_t group_of(const Key& k) {
  return k.group();
}
struct KeyHash {
  std::size_t operator()(std::uint64_t fp) const { return fp; }
  template <class Key>
  std::size_t operator()(const Key& k) const {
    return static_cast<std::size_t>(k.hash());
  }
};

struct SbfKey {
  std::string supply;  // Supply::describe()
  std::int64_t horizon;
  bool operator==(const SbfKey&) const = default;
  std::uint64_t group() const { return std::hash<std::string>{}(supply); }
  std::uint64_t hash() const {
    return hash_combine(group(), static_cast<std::uint64_t>(horizon));
  }
};

/// check_task findings name the task and its vertices, so the lint is
/// keyed by a hash of those names too, grouped under the (name-blind)
/// task fingerprint.
struct ValidateKey {
  std::uint64_t task;
  std::uint64_t names;
  bool operator==(const ValidateKey&) const = default;
  std::uint64_t group() const { return task; }
  std::uint64_t hash() const { return hash_combine(task, names); }
};

struct DerivedKey {
  std::uint8_t op;
  std::uint64_t a;
  std::uint64_t b;
  bool operator==(const DerivedKey&) const = default;
  std::uint64_t group() const { return a; }
  std::uint64_t hash() const { return hash_combine(hash_combine(a, b), op); }
};

/// Interned curves sharing one content fingerprint (more than one only on
/// a 64-bit collision).  Only interned storage carries bytes: every other
/// family's values point into it.
using Bucket = std::vector<CurvePtr>;
std::uint64_t curve_bytes(const CurvePtr& p) {
  return sizeof(Staircase) + p->store_bytes();
}
std::uint64_t bytes_of(const Bucket& bucket) {
  std::uint64_t n = 0;
  for (const CurvePtr& p : bucket) n += curve_bytes(p);
  return n;
}
template <class Value>
std::uint64_t bytes_of(const Value&) {
  return 0;
}

}  // namespace

bool cache_enabled_default() {
  static const bool enabled = cfg::get_bool("STRT_CACHE", true);
  return enabled;
}

enum class Workspace::DerivedOp : std::uint8_t {
  kAdd,
  kConv,
  kLeftover,
  kHull,
};

struct Workspace::Impl {
  explicit Impl(bool on) : caching(on) {}

  const bool caching;

  /// kStripes (mutex, table) pairs selected by a 64-bit key hash, so
  /// lookups about different keys almost never share a lock.
  template <class Table>
  struct Striped {
    struct Stripe {
      Mutex m;
      Table table STRT_GUARDED_BY(m);
    };
    std::array<Stripe, kStripes> stripes;
    [[nodiscard]] Stripe& of(std::uint64_t key_hash) {
      return stripes[key_hash & (kStripes - 1)];
    }
  };

  /// One memo family: a striped Key -> Value table plus the policy every
  /// family shares, written once.  A probe takes only its stripe's lock;
  /// computation runs outside the locks, so two threads may race to fill
  /// the same slot -- both compute the identical canonical value and the
  /// first insert wins, keeping cache-on results bit-identical to
  /// cache-off, to any thread count and to any shard count.  No method
  /// holds two stripe locks at once, and the eviction registry lock is
  /// only ever taken after a stripe lock is released.
  template <class Key, class Value>
  class Memo {
   public:
    Memo(Impl& ws, Family family)
        : ws_(ws),
          spec_(kFamilies[family]),
          counters_(family_counters(family)) {}

    /// The cached value for key_of(), else compute()'s result inserted
    /// first-insert-wins.  With caching off, a counted pass-through that
    /// never builds the key.
    template <class KeyFn, class Compute>
    Value get(KeyFn&& key_of, Compute&& compute) {
      if (!ws_.caching) return fresh(compute);
      const Key key = key_of();
      std::optional<Value> cached = probe(key, [](const Value* v) {
        return v ? std::optional(*v) : std::nullopt;
      });
      if (cached) {
        hit(key);
        return *std::move(cached);
      }
      Value value = compute();
      note(/*was_hit=*/false);
      return insert(key, std::move(value));
    }

    /// Cache-off pass-through: computes fresh, counted as a miss.
    template <class Compute>
    auto fresh(Compute&& compute) {
      note(/*was_hit=*/false, /*cached=*/false);
      return compute();
    }

    /// Timed probe: visit(const Value*) under the stripe lock (nullptr
    /// when absent -- probing never inserts).
    template <class Visit>
    auto probe(const Key& key, Visit&& visit) {
      Stripe& s = stripe(key);
      const ScopedTimer timer(lookup_ns);
      const StripeLock lock(s.m, spec_.site);
      const auto it = s.table.find(key);
      return visit(it == s.table.end() ? nullptr : &it->second);
    }

    /// Runs f(slot) on key's slot (default-constructed when absent) under
    /// the stripe lock.  The caller touches the group afterwards.
    template <class F>
    decltype(auto) locked(const Key& key, F&& f) {
      Stripe& s = stripe(key);
      const StripeLock lock(s.m, spec_.site);
      return f(s.table[key]);
    }

    /// First insert wins: returns the value the table holds for key.
    Value insert(const Key& key, Value value) {
      {
        Stripe& s = stripe(key);
        const StripeLock lock(s.m, spec_.site);
        const auto [it, inserted] = s.table.try_emplace(key, value);
        if (!inserted) value = it->second;
      }
      touch(key);
      return value;
    }

    void hit(const Key& key) {
      note(/*was_hit=*/true);
      touch(key);
    }

    void note(bool was_hit, bool cached = true) {
      (was_hit ? counters_.hits : counters_.misses)->add(1);
      if (spec_.tally == Tally::kNone ||
          (spec_.tally == Tally::kCached && !cached)) {
        return;
      }
      was_hit ? ws_.hits.add() : ws_.misses.add();
    }

    /// Records LRU activity on key's group (and attributes interned
    /// bytes to it).  No-op while no budget is armed, so the hit paths
    /// keep their lock-free cost in the default configuration.
    void touch(const Key& key, std::uint64_t add_bytes = 0) {
      if (ws_.budget_on()) ws_.touch_group(group_of(key), add_bytes);
    }

    /// Visits every entry, one stripe lock at a time (save).
    template <class Visit>
    void for_each(Visit&& visit) {
      for (Stripe& s : tables_.stripes) {
        const StripeLock lock(s.m, spec_.site);
        for (const auto& [key, value] : s.table) visit(key, value);
      }
    }

    /// Adds every entry's group and bytes to `found` (budget backfill).
    void collect_groups(
        std::unordered_map<std::uint64_t, std::uint64_t>& found) {
      for_each([&found](const Key& key, const Value& value) {
        found[group_of(key)] += bytes_of(value);
      });
    }

    /// Erases every entry in a victim group; returns the bytes released.
    std::uint64_t erase_groups(
        const std::unordered_set<std::uint64_t>& victims) {
      std::uint64_t freed = 0;
      for (Stripe& s : tables_.stripes) {
        const StripeLock lock(s.m, spec_.site);
        for (auto it = s.table.begin(); it != s.table.end();) {
          if (victims.contains(group_of(it->first))) {
            freed += bytes_of(it->second);
            it = s.table.erase(it);
          } else {
            ++it;
          }
        }
      }
      return freed;
    }

   private:
    using Table = std::unordered_map<Key, Value, KeyHash>;
    using Stripe = typename Striped<Table>::Stripe;

    Stripe& stripe(const Key& key) { return tables_.of(KeyHash{}(key)); }

    Impl& ws_;
    const FamilySpec& spec_;
    const FamilyCounters& counters_;
    Striped<Table> tables_;
  };

  struct TaskEntry {
    /// The largest-horizon materialization so far (source of truncations).
    CurvePtr max_curve;
    /// Every horizon already answered, for exact re-hits.
    std::map<std::int64_t, CurvePtr> by_horizon;

    void keep_widest(const CurvePtr& c) {
      if (!max_curve || max_curve->horizon() < c->horizon()) max_curve = c;
    }
  };

  Memo<std::uint64_t, Bucket> interned{*this, kIntern};
  Memo<ValidateKey, std::shared_ptr<const check::CheckResult>> validations{
      *this, kValidate};
  Memo<std::uint64_t, TaskEntry> rbfs{*this, kRbf};
  Memo<std::uint64_t, TaskEntry> dbfs{*this, kDbf};
  Memo<SbfKey, CurvePtr> sbfs{*this, kSbf};
  Memo<DerivedKey, CurvePtr> derived{*this, kDerived};

  /// Applies f to every family (eviction sweep, budget backfill).
  template <class F>
  void for_each_memo(F&& f) {
    std::apply([&f](auto&... memo) { (f(memo), ...); },
               std::tie(interned, validations, rbfs, dbfs, sbfs, derived));
  }

  Count<kHits> hits;
  Count<kMisses> misses;
  Count<kBytes> bytes;
  Count<kEvictions> evictions;
  Count<kEvictedBytes> evicted_bytes;

  /// Bytes-budget eviction state: one LRU entry per group (see group_of).
  /// Touch order is a relaxed atomic clock; the registry itself is a plain
  /// std::mutex (never strt::Mutex: it is a leaf lock consulted from the
  /// memo paths only while a budget is armed, and it must not feed
  /// lockdep edges).  Lock discipline: the registry lock is never held
  /// while a stripe lock is acquired, so it cannot participate in a cycle
  /// with the memo stripes.
  struct Group {
    std::uint64_t bytes = 0;       // interned-curve bytes attributed here
    std::uint64_t last_touch = 0;  // clock value of the latest hit/insert
  };
  struct EvictState {
    std::mutex mu;
    std::unordered_map<std::uint64_t, Group> groups;
    /// Clock values at which currently-live BatchPins started: groups
    /// touched at or after the oldest pin are exempt from eviction.
    std::multiset<std::uint64_t> pins;
  };
  EvictState evict;
  std::atomic<std::uint64_t> touch_clock{0};
  std::atomic<std::uint64_t> budget{0};  // 0 = unlimited

  [[nodiscard]] bool budget_on() const {
    return budget.load(std::memory_order_relaxed) != 0;
  }

  void touch_group(std::uint64_t group, std::uint64_t add_bytes) {
    const std::uint64_t now =
        touch_clock.fetch_add(1, std::memory_order_relaxed) + 1;
    const std::lock_guard<std::mutex> lock(evict.mu);
    Group& g = evict.groups[group];
    g.last_touch = now;
    g.bytes += add_bytes;
  }

  /// Drops least-recently-touched groups until the interned storage fits
  /// `target` bytes (or every unpinned group is gone).  Victim selection
  /// runs under the registry lock; the erase sweep then walks every
  /// family stripe by stripe, so no two locks are ever held together.
  /// Races with concurrent touches are benign: an entry inserted into a
  /// victim group after selection survives the sweep of earlier stripes
  /// or is recomputed on its next query -- results are unaffected either
  /// way (bit-identity contract).
  void evict_to_budget(std::uint64_t target) {
    for (;;) {
      std::vector<std::uint64_t> victims;
      {
        const std::lock_guard<std::mutex> lock(evict.mu);
        const std::uint64_t held = bytes.load();
        if (held <= target || evict.groups.empty()) return;
        const std::uint64_t min_pin =
            evict.pins.empty() ? std::numeric_limits<std::uint64_t>::max()
                               : *evict.pins.begin();
        std::vector<std::pair<std::uint64_t, std::uint64_t>> order;
        order.reserve(evict.groups.size());
        for (const auto& [group, info] : evict.groups) {
          // A group touched at or after the oldest live pin may be a batch
          // leader's in-flight warmth: never evict it.
          if (info.last_touch < min_pin) {
            order.emplace_back(info.last_touch, group);
          }
        }
        if (order.empty()) return;  // everything live is pinned
        std::sort(order.begin(), order.end());
        const std::uint64_t need = held - target;
        std::uint64_t covered = 0;
        for (const auto& [touch, group] : order) {
          victims.push_back(group);
          covered += evict.groups[group].bytes;
          if (covered >= need) break;
        }
        for (const std::uint64_t group : victims) evict.groups.erase(group);
      }

      const std::unordered_set<std::uint64_t> vset(victims.begin(),
                                                   victims.end());
      std::uint64_t freed = 0;
      for_each_memo([&](auto& memo) { freed += memo.erase_groups(vset); });

      bytes.sub(freed);
      evictions.add(victims.size());
      evicted_bytes.add(freed);
    }
  }

  /// Rebuilds the eviction registry from the live memo tables.  While no
  /// budget is armed, Memo::touch() is a no-op (the memo hot paths stay
  /// lock-free in the default configuration), so warmth accumulated in
  /// that state has no group attribution.  On the unlimited -> budgeted
  /// transition every live group is registered with last_touch = 0: older
  /// than any subsequent touch, so pre-budget warmth is the first LRU
  /// victim.  The registry lock is only taken after the stripe walks.
  void backfill_groups() {
    std::unordered_map<std::uint64_t, std::uint64_t> found;  // group -> bytes
    for_each_memo([&found](auto& memo) { memo.collect_groups(found); });
    const std::lock_guard<std::mutex> lock(evict.mu);
    evict.groups.clear();
    for (const auto& [group, sz] : found) {
      evict.groups.emplace(group, Group{sz, 0});
    }
  }
  void maybe_evict() {
    const std::uint64_t b = budget.load(std::memory_order_relaxed);
    if (b != 0 && bytes.load() > b) {
      evict_to_budget(b);
    }
  }
};

Workspace::Workspace() : Workspace(cache_enabled_default()) {}

Workspace::Workspace(bool caching)
    : impl_(std::make_unique<Impl>(caching)), caching_(caching) {}

Workspace::Workspace(bool caching, std::uint64_t cache_bytes_budget)
    : Workspace(caching) {
  set_cache_bytes_budget(cache_bytes_budget);
}

Workspace::~Workspace() = default;

void Workspace::set_cache_bytes_budget(std::uint64_t bytes) {
  const std::uint64_t prev =
      impl_->budget.exchange(bytes, std::memory_order_relaxed);
  // Arming a budget over warmth accumulated while unlimited: that
  // warmth carries no group attribution yet, so rebuild the registry
  // before the first eviction decision.
  if (prev == 0 && bytes != 0) impl_->backfill_groups();
  impl_->maybe_evict();
}

std::uint64_t Workspace::cache_bytes_budget() const {
  return impl_->budget.load(std::memory_order_relaxed);
}

Workspace::BatchPin::~BatchPin() {
  if (ws_ == nullptr) return;
  Impl& impl = *ws_->impl_;
  const std::lock_guard<std::mutex> lock(impl.evict.mu);
  if (const auto it = impl.evict.pins.find(start_);
      it != impl.evict.pins.end()) {
    impl.evict.pins.erase(it);
  }
}

Workspace::BatchPin Workspace::pin_batch() {
  if (!caching_ || !impl_->budget_on()) return BatchPin(nullptr, 0);
  const std::uint64_t start =
      impl_->touch_clock.fetch_add(1, std::memory_order_relaxed) + 1;
  {
    const std::lock_guard<std::mutex> lock(impl_->evict.mu);
    impl_->evict.pins.insert(start);
  }
  return BatchPin(this, start);
}

CurvePtr Workspace::intern(Staircase c) {
  if (!caching_) return std::make_shared<const Staircase>(std::move(c));
  const std::uint64_t fp = fingerprint(c);
  bool inserted = false;
  const CurvePtr result = impl_->interned.locked(fp, [&](Bucket& bucket) {
    for (const CurvePtr& p : bucket) {
      if (*p == c) return p;
    }
    // A non-empty bucket here means two unequal curves share a 64-bit
    // content fingerprint.  Hash-consing stays correct (full equality
    // above decides), but every fingerprint-keyed memo table would then
    // conflate them -- flag it under STRT_VALIDATE.
    STRT_DCHECK(bucket.empty(),
                "curve fingerprint collision: unequal curves share a hash");
    inserted = true;
    return bucket.emplace_back(std::make_shared<const Staircase>(std::move(c)));
  });
  impl_->interned.note(/*was_hit=*/!inserted);
  const std::uint64_t sz = inserted ? curve_bytes(result) : 0;
  if (inserted) impl_->bytes.add(sz);
  impl_->interned.touch(fp, sz);
  // Online eviction: triggered outside the stripe lock, so the sweep
  // can take each stripe in turn without nesting.
  if (inserted) impl_->maybe_evict();
  return result;
}

std::shared_ptr<const check::CheckResult> Workspace::validate(
    const DrtTask& task) {
  // Lint outside the lock; racers produce identical results (the pass is
  // pure) and the first insert wins.
  const auto key = [&] {
    std::uint64_t names = std::hash<std::string>{}(task.name());
    for (const DrtVertex& v : task.vertices()) {
      names = hash_combine(names, std::hash<std::string>{}(v.name));
    }
    return ValidateKey{task.fingerprint(), names};
  };
  return impl_->validations.get(key, [&] {
    return std::make_shared<const check::CheckResult>(check::check_task(task));
  });
}

CurvePtr Workspace::workload_curve(const DrtTask& task, Time horizon,
                                   bool demand) {
  auto& memo = demand ? impl_->dbfs : impl_->rbfs;
  const auto compute = [&] {
    return intern(demand ? strt::dbf(task, horizon) : strt::rbf(task, horizon));
  };
  if (!caching_) return memo.fresh(compute);
  const std::uint64_t fp = task.fingerprint();

  CurvePtr base;  // cached curve on a larger horizon, if any
  const CurvePtr cached =
      memo.probe(fp, [&](const Impl::TaskEntry* e) -> CurvePtr {
        if (e == nullptr) return nullptr;
        if (const auto it = e->by_horizon.find(horizon.count());
            it != e->by_horizon.end()) {
          return it->second;
        }
        if (e->max_curve && e->max_curve->horizon() > horizon) {
          base = e->max_curve;
        }
        return nullptr;
      });
  if (cached) {
    memo.hit(fp);
    return cached;
  }

  // Compute outside the lock: either truncate the wider materialization
  // (bit-identical to a fresh computation -- both are the canonical
  // staircase of the same horizon-independent function, so it counts as
  // a hit) or explore fresh.
  CurvePtr result = base ? intern(base->truncated(horizon)) : compute();
  memo.note(/*was_hit=*/base != nullptr);
  memo.locked(fp, [&](Impl::TaskEntry& e) {
    const auto [it, inserted] = e.by_horizon.emplace(horizon.count(), result);
    if (!inserted) result = it->second;  // a racer filled it; same bits
    e.keep_widest(result);
  });
  memo.touch(fp);
  return result;
}

CurvePtr Workspace::rbf(const DrtTask& task, Time horizon) {
  return workload_curve(task, horizon, /*demand=*/false);
}

CurvePtr Workspace::dbf(const DrtTask& task, Time horizon) {
  return workload_curve(task, horizon, /*demand=*/true);
}

CurvePtr Workspace::sbf(const Supply& supply, Time horizon) {
  // Exact-match keying only: sbf curves carry a periodic tail, which
  // truncation would drop, so horizon-extension reuse does not apply.
  return impl_->sbfs.get(
      [&] { return SbfKey{supply.describe(), horizon.count()}; },
      [&] { return intern(supply.sbf(horizon)); });
}

template <class Compute>
CurvePtr Workspace::derived(DerivedOp op, const Staircase& f,
                            const Staircase* g, Compute&& compute) {
  return impl_->derived.get(
      [&] {
        return DerivedKey{static_cast<std::uint8_t>(op), fingerprint(f),
                          g != nullptr ? fingerprint(*g) : 0};
      },
      [&] { return intern(compute()); });
}

CurvePtr Workspace::pointwise_add(const Staircase& f, const Staircase& g) {
  return derived(DerivedOp::kAdd, f, &g,
                 [&] { return strt::pointwise_add(f, g); });
}

CurvePtr Workspace::minplus_conv(const Staircase& f, const Staircase& g) {
  return derived(DerivedOp::kConv, f, &g,
                 [&] { return strt::minplus_conv(f, g); });
}

CurvePtr Workspace::leftover_service(const Staircase& b,
                                     const Staircase& a) {
  return derived(DerivedOp::kLeftover, b, &a,
                 [&] { return strt::leftover_service(b, a); });
}

CurvePtr Workspace::concave_hull_staircase(const Staircase& f) {
  return derived(DerivedOp::kHull, f, nullptr,
                 [&] { return strt::concave_hull_staircase(f); });
}

namespace {

/// Translates one shared curve into the wire representation.
snapshot::CurveRecord to_record(std::uint64_t fp, const Staircase& c) {
  snapshot::CurveRecord rec;
  rec.fp = fp;
  rec.horizon = c.horizon().count();
  if (c.tail().has_value()) {
    rec.has_tail = true;
    rec.tail_period = c.tail()->period.count();
    rec.tail_increment = c.tail()->increment.count();
  }
  rec.times.reserve(c.times().size());
  rec.values.reserve(c.values().size());
  for (const Time t : c.times()) rec.times.push_back(t.count());
  for (const Work v : c.values()) rec.values.push_back(v.count());
  return rec;
}

}  // namespace

bool Workspace::save_snapshot(const std::string& path, std::string* error) {
  const auto t0 = std::chrono::steady_clock::now();
  if (!caching_) {
    if (error != nullptr) *error = "caching is off; nothing to snapshot";
    return false;
  }
  impl_->maybe_evict();  // the snapshot must itself fit the budget

  snapshot::Snapshot snap;
  // Every curve any exported entry references, keyed by fingerprint.
  // add_curve() returns nullopt on a fingerprint collision between
  // unequal curves (astronomically rare): the colliding entry is simply
  // not exported, which only costs warmth.
  std::unordered_map<std::uint64_t, CurvePtr> exported;
  const auto add_curve =
      [&exported](const CurvePtr& p) -> std::optional<std::uint64_t> {
    const std::uint64_t fp = fingerprint(*p);
    const auto [it, inserted] = exported.emplace(fp, p);
    if (!inserted && *it->second != *p) return std::nullopt;
    return fp;
  };

  impl_->interned.for_each([&](std::uint64_t, const Bucket& bucket) {
    if (bucket.size() == 1) (void)add_curve(bucket.front());
  });
  for (const bool demand : {false, true}) {
    auto& out = demand ? snap.dbf : snap.rbf;
    (demand ? impl_->dbfs : impl_->rbfs)
        .for_each([&](std::uint64_t task_fp, const Impl::TaskEntry& entry) {
          snapshot::WorkloadRecord rec;
          rec.task_fp = task_fp;
          rec.by_horizon.reserve(entry.by_horizon.size());
          for (const auto& [horizon, curve] : entry.by_horizon) {
            if (const auto fp = add_curve(curve)) {
              rec.by_horizon.emplace_back(horizon, *fp);
            }
          }
          if (!rec.by_horizon.empty()) out.push_back(std::move(rec));
        });
  }
  impl_->sbfs.for_each([&](const SbfKey& key, const CurvePtr& curve) {
    if (const auto fp = add_curve(curve)) {
      snap.sbf.push_back(snapshot::SupplyRecord{key.supply, key.horizon, *fp});
    }
  });
  impl_->derived.for_each([&](const DerivedKey& key, const CurvePtr& curve) {
    if (const auto fp = add_curve(curve)) {
      snap.derived.push_back(
          snapshot::DerivedRecord{key.op, key.a, key.b, *fp});
    }
  });

  snap.curves.reserve(exported.size());
  for (const auto& [fp, curve] : exported) {
    snap.curves.push_back(to_record(fp, *curve));
  }
  // Deterministic file bytes: hash-map walk order must not leak into
  // the snapshot (two saves of identical warmth produce identical
  // files, which CI diffs rely on).
  const auto sort_by = [](auto& records, auto key) {
    std::sort(records.begin(), records.end(),
              [&key](const auto& a, const auto& b) { return key(a) < key(b); });
  };
  sort_by(snap.curves, [](const auto& r) { return r.fp; });
  sort_by(snap.rbf, [](const auto& r) { return r.task_fp; });
  sort_by(snap.dbf, [](const auto& r) { return r.task_fp; });
  sort_by(snap.sbf, [](const auto& r) { return std::tie(r.key, r.horizon); });
  sort_by(snap.derived, [](const auto& r) { return std::tie(r.op, r.a, r.b); });

  if (!snapshot::write_file(path, snap, error)) return false;

  static obs::Counter& c_save_ns = obs::counter("snapshot.save_ns");
  c_save_ns.add(ns_since(t0));
  obs::gauge("snapshot.entries").set(
      static_cast<std::int64_t>(snap.entry_count()));
  return true;
}

bool Workspace::load_snapshot(const std::string& path, std::string* error) {
  const auto t0 = std::chrono::steady_clock::now();
  static obs::Counter& c_rejected = obs::counter("snapshot.rejected");
  const auto reject = [&](std::string reason) {
    c_rejected.add(1);
    if (error != nullptr) *error = std::move(reason);
    return false;
  };

  snapshot::LoadResult loaded = snapshot::read_file(path);
  if (loaded.status == snapshot::LoadResult::Status::kMissing) {
    if (error != nullptr) *error = "no snapshot at " + path;
    return false;  // a cold start, not a rejection
  }
  if (loaded.status == snapshot::LoadResult::Status::kRejected) {
    return reject(std::move(loaded.error));
  }
  if (!caching_) {
    if (error != nullptr) *error = "caching is off; snapshot not loaded";
    return false;
  }

  try {
    const snapshot::Snapshot& snap = loaded.snap;

    // Stage 1 -- validate and materialize everything before touching
    // the live tables, so a rejection leaves the workspace untouched
    // (clean cold start).  Every curve is rebuilt from its canonical
    // breakpoints and its content fingerprint recomputed: an entry only
    // enters a memo table under a key the engine itself would derive.
    std::unordered_map<std::uint64_t, CurvePtr> staged;
    staged.reserve(snap.curves.size());
    for (const snapshot::CurveRecord& rec : snap.curves) {
      std::string why;
      if (!snapshot::validate_curve(rec, &why)) {
        return reject("invalid curve record: " + why);
      }
      SegmentStore store;
      store.reserve(rec.times.size());
      for (std::size_t i = 0; i < rec.times.size(); ++i) {
        store.append(Time(rec.times[i]), Work(rec.values[i]));
      }
      std::optional<Tail> tail;
      if (rec.has_tail) {
        tail = Tail{Time(rec.tail_period), Work(rec.tail_increment)};
      }
      Staircase curve = Staircase::from_segments(std::move(store),
                                                 Time(rec.horizon), tail);
      if (fingerprint(curve) != rec.fp) {
        return reject("curve fingerprint mismatch");
      }
      const auto [it, inserted] = staged.emplace(
          rec.fp, std::make_shared<const Staircase>(std::move(curve)));
      if (!inserted) return reject("duplicate curve fingerprint");
    }
    const auto resolve = [&staged](std::uint64_t fp) -> const CurvePtr& {
      const auto it = staged.find(fp);
      if (it == staged.end()) {
        throw std::runtime_error("dangling curve reference");
      }
      return it->second;
    };
    for (const auto* family : {&snap.rbf, &snap.dbf}) {
      for (const snapshot::WorkloadRecord& rec : *family) {
        if (rec.by_horizon.empty()) return reject("empty workload record");
        for (const auto& [horizon, fp] : rec.by_horizon) {
          // The memo contract: the curve cached for horizon H is the
          // canonical staircase *on* [0, H] -- anything else would
          // poison horizon-extension truncation after reload.
          if (resolve(fp)->horizon().count() != horizon) {
            return reject("workload curve horizon mismatch");
          }
        }
      }
    }
    for (const snapshot::SupplyRecord& rec : snap.sbf) (void)resolve(rec.curve_fp);
    for (const snapshot::DerivedRecord& rec : snap.derived) {
      if (rec.op > static_cast<std::uint8_t>(DerivedOp::kHull)) {
        return reject("unknown derived op");
      }
      (void)resolve(rec.curve_fp);
    }

    // Stage 2 -- apply through the normal first-insert-wins inserts
    // (safe concurrently with serving and with other loaders/savers).
    for (auto& [fp, curve] : staged) curve = intern(Staircase(*curve));
    for (const bool demand : {false, true}) {
      auto& memo = demand ? impl_->dbfs : impl_->rbfs;
      for (const snapshot::WorkloadRecord& rec : demand ? snap.dbf : snap.rbf) {
        memo.locked(rec.task_fp, [&](Impl::TaskEntry& e) {
          for (const auto& [horizon, fp] : rec.by_horizon) {
            e.by_horizon.emplace(horizon, staged.at(fp));
          }
          e.keep_widest(e.by_horizon.rbegin()->second);
        });
        memo.touch(rec.task_fp);
      }
    }
    for (const snapshot::SupplyRecord& rec : snap.sbf) {
      (void)impl_->sbfs.insert(SbfKey{rec.key, rec.horizon},
                               staged.at(rec.curve_fp));
    }
    for (const snapshot::DerivedRecord& rec : snap.derived) {
      (void)impl_->derived.insert(DerivedKey{rec.op, rec.a, rec.b},
                                  staged.at(rec.curve_fp));
    }

    static obs::Counter& c_load_ns = obs::counter("snapshot.load_ns");
    c_load_ns.add(ns_since(t0));
    obs::gauge("snapshot.entries").set(
        static_cast<std::int64_t>(snap.entry_count()));
    return true;
  } catch (const std::exception& e) {
    return reject(std::string("snapshot load failed: ") + e.what());
  } catch (...) {
    return reject("snapshot load failed");
  }
}

WorkspaceStats Workspace::stats() const {
  WorkspaceStats s;
  s.hits = impl_->hits.load();
  s.misses = impl_->misses.load();
  s.bytes = impl_->bytes.load();
  s.evictions = impl_->evictions.load();
  s.evicted_bytes = impl_->evicted_bytes.load();
  return s;
}

}  // namespace strt::engine
