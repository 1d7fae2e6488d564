// strt::snapshot + engine::Workspace persistence and eviction.
//
// Pins the warm-start contracts of the persistent snapshot
// (strt.engine.snapshot.v2):
//
//   * Codec round-trip: encode() -> decode() reproduces every section
//     exactly, and the writer's output is deterministic.  A v1 file's
//     coarse section is checksum-checked and skipped; v2 knows no id 6.
//   * Rejection: a flipped magic, an unknown version, a corrupted
//     payload byte (checksum), or a truncated file is rejected whole --
//     load_snapshot() returns false, bumps snapshot.rejected, applies
//     nothing, never throws -- and the workspace cold-starts clean.
//   * Warm-start bit-identity: outcomes of all six analysis kinds are
//     bit-identical with the snapshot off, on, and rejected, both via a
//     bare Workspace and via a restarted svc::Service reusing one
//     snapshot file.
//   * Wire format pinned across builds: tests/data/snapshot_v1_parent.snap
//     was saved by an earlier (v1) build from fixture_requests(); this
//     build must reload and re-save it as tests/data/snapshot_v2.snap,
//     and recompute that file cold, byte for byte.  With STRT_SNAPSHOT
//     set, the file it names (e.g. one strt_serve saved) must decode and
//     load with at least one record.
//   * Eviction: a bytes budget is enforced (stats().bytes ends within
//     budget, cache.evictions counts), evicted entries of every memo
//     family recompute to the same answers, and groups touched under a
//     live pin_batch() are never evicted out from under a batch leader.
//   * Concurrency: save/load racing live queries on a shared workspace
//     is data-race-free (the TSan CI leg runs this suite).
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "base/config.hpp"
#include "engine/workspace.hpp"
#include "graph/drt.hpp"
#include "model/generator.hpp"
#include "obs/counters.hpp"
#include "snapshot/snapshot.hpp"
#include "svc/api.hpp"
#include "svc/service.hpp"

namespace strt {
namespace {

namespace fs = std::filesystem;

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

svc::AnalysisRequest request_of_kind(svc::AnalysisKind kind,
                                     std::uint64_t id, std::uint64_t seed) {
  svc::AnalysisRequest req;
  req.id = id;
  req.kind = kind;
  req.supply = Supply::tdma(Time(7), Time(10));
  const bool single = kind == svc::AnalysisKind::kStructural ||
                      kind == svc::AnalysisKind::kSensitivity;
  req.tasks = random_set(seed, single ? 1 : 3, single ? 0.3 : 0.6);
  return req;
}

/// One request of every kind plus a certified (coarse-first) structural
/// request: together they warm every memo family.
std::vector<svc::AnalysisRequest> every_family_requests(std::uint64_t seed) {
  std::vector<svc::AnalysisRequest> reqs;
  std::uint64_t id = 1;
  for (const svc::AnalysisKind kind : svc::kAllAnalysisKinds) {
    reqs.push_back(request_of_kind(kind, id, seed + id));
    ++id;
  }
  svc::AnalysisRequest certified =
      request_of_kind(svc::AnalysisKind::kStructural, id, seed + id);
  certified.common.coarsen_g = Time(4);
  reqs.push_back(std::move(certified));
  return reqs;
}

/// The requests tests/data/snapshot_v1_parent.snap was saved from:
/// structural (validation, rbf, sbf), FP (sums, leftover service), EDF
/// (dbf) and one certified structural request (the v1 coarse section), so
/// every snapshot section is non-empty.  Changing this list invalidates
/// both fixtures.
std::vector<svc::AnalysisRequest> fixture_requests() {
  std::vector<svc::AnalysisRequest> reqs;
  reqs.push_back(request_of_kind(svc::AnalysisKind::kStructural, 1, 700));
  reqs.push_back(request_of_kind(svc::AnalysisKind::kFp, 2, 701));
  reqs.push_back(request_of_kind(svc::AnalysisKind::kEdf, 3, 702));
  svc::AnalysisRequest certified =
      request_of_kind(svc::AnalysisKind::kStructural, 4, 703);
  certified.common.coarsen_g = Time(4);
  reqs.push_back(std::move(certified));
  return reqs;
}

/// Field-by-field equality of two outcomes (the result variant included);
/// mirrors the test_svc.cpp helper so this suite stands alone.
void expect_same_outcome(const svc::AnalysisOutcome& a,
                         const svc::AnalysisOutcome& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.error, b.error);
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

/// A scratch file path under the test's temp directory, removed on
/// destruction (and its .tmp sibling, in case a save was interrupted).
struct ScratchFile {
  explicit ScratchFile(const std::string& name)
      : path((fs::temp_directory_path() /
              ("strt_snapshot_test_" + name +
               std::to_string(::getpid()) + ".bin"))
                 .string()) {
    std::error_code ec;
    fs::remove(path, ec);
  }
  ~ScratchFile() {
    std::error_code ec;
    fs::remove(path, ec);
    fs::remove(path + ".tmp", ec);
  }
  std::string path;
};

std::string slurp_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const std::streamsize size = in.tellg();
  std::string bytes(size > 0 ? static_cast<std::size_t>(size) : 0, '\0');
  in.seekg(0);
  in.read(bytes.data(), size);
  return bytes;
}

/// The little-endian u64 at byte `pos` of a snapshot file.
std::uint64_t u64_at(const std::string& bytes, std::size_t pos) {
  std::uint64_t v = 0;
  for (std::size_t i = 8; i-- > 0;) {
    v = (v << 8) | static_cast<unsigned char>(bytes[pos + i]);
  }
  return v;
}

snapshot::Snapshot sample_snapshot() {
  snapshot::Snapshot snap;
  snapshot::CurveRecord c1;
  c1.fp = 0x1111;
  c1.horizon = 40;
  c1.has_tail = 1;
  c1.tail_period = 10;
  c1.tail_increment = 3;
  c1.times = {0, 7, 22};
  c1.values = {1, 4, 9};
  snapshot::CurveRecord c2;
  c2.fp = 0x2222;
  c2.horizon = 16;
  c2.has_tail = 0;
  c2.tail_period = 1;
  c2.tail_increment = 0;
  c2.times = {0, 16};
  c2.values = {2, 5};
  snap.curves = {c1, c2};
  snap.rbf = {{0xaaa, {{40, 0x1111}}}};
  snap.dbf = {{0xbbb, {{16, 0x2222}, {40, 0x1111}}}};
  snap.sbf = {{"tdma slot 7 cycle 10", 40, 0x1111}};
  snap.derived = {{0, 0x1111, 0x2222, 0x2222}};
  return snap;
}

TEST(SnapshotCodec, RoundTripReproducesEverySection) {
  const snapshot::Snapshot snap = sample_snapshot();
  const std::string bytes = snapshot::encode(snap);
  const snapshot::DecodeResult back = snapshot::decode(bytes);
  ASSERT_TRUE(back.ok) << back.error;
  EXPECT_EQ(back.snap.curves, snap.curves);
  EXPECT_EQ(back.snap.rbf, snap.rbf);
  EXPECT_EQ(back.snap.dbf, snap.dbf);
  EXPECT_EQ(back.snap.sbf, snap.sbf);
  EXPECT_EQ(back.snap.derived, snap.derived);
  EXPECT_EQ(back.snap.entry_count(), snap.entry_count());
  // Deterministic bytes: encoding twice is bit-identical (CI diffs
  // snapshot files across runs).
  EXPECT_EQ(snapshot::encode(snap), bytes);
}

TEST(SnapshotCodec, RejectsMagicVersionChecksumAndTruncation) {
  const std::string good = snapshot::encode(sample_snapshot());
  ASSERT_TRUE(snapshot::decode(good).ok);

  auto expect_rejected = [](std::string bytes, const char* what) {
    const snapshot::DecodeResult r = snapshot::decode(bytes);
    EXPECT_FALSE(r.ok) << what;
    EXPECT_FALSE(r.error.empty()) << what;
    EXPECT_EQ(r.snap.entry_count(), 0u) << what;
  };

  std::string bad = good;
  bad[0] = static_cast<char>(bad[0] ^ 0x7f);
  expect_rejected(bad, "flipped magic");

  bad = good;
  bad[8] = 0x7f;  // version field
  expect_rejected(bad, "unknown version");

  bad = good;
  bad[bad.size() / 2] =
      static_cast<char>(bad[bad.size() / 2] ^ 0x01);  // checksum mismatch
  expect_rejected(bad, "corrupted payload");

  bad = good;
  bad.resize(bad.size() - 9);
  expect_rejected(bad, "truncated file");

  bad = good;
  bad.push_back(0);
  expect_rejected(bad, "trailing bytes");

  expect_rejected(std::string(), "empty input");
}

TEST(SnapshotCodec, V1CoarseSectionIsCheckedThenSkipped) {
  // The v1 fixture ends with its coarse section (id 6): a flipped byte in
  // that payload still fails its checksum, although the section is not
  // kept.  The last 8 bytes are the checksum, so size - 9 is payload.
  std::string v1 =
      slurp_file(std::string(STRT_TEST_DATA_DIR) + "/snapshot_v1_parent.snap");
  ASSERT_TRUE(snapshot::decode(v1).ok);
  v1[v1.size() - 9] = static_cast<char>(v1[v1.size() - 9] ^ 0x01);
  const snapshot::DecodeResult corrupt = snapshot::decode(v1);
  EXPECT_FALSE(corrupt.ok);
  EXPECT_EQ(corrupt.error, "section checksum mismatch");

  // In v2, id 6 is unknown: relabel the last (derived) section as 6.
  std::string v2 = snapshot::encode(sample_snapshot());
  std::size_t pos = 24;  // header
  for (int s = 0; s < 4; ++s) pos += 16 + u64_at(v2, pos + 8) + 8;
  ASSERT_EQ(v2[pos], static_cast<char>(snapshot::SectionId::kDerived));
  v2[pos] = 6;
  const snapshot::DecodeResult unknown = snapshot::decode(v2);
  EXPECT_FALSE(unknown.ok);
  EXPECT_EQ(unknown.error, "unknown section id");
}

TEST(SnapshotCodec, ValidateCurveEnforcesCanonicalForm) {
  snapshot::CurveRecord rec = sample_snapshot().curves[0];
  std::string error;
  EXPECT_TRUE(snapshot::validate_curve(rec, &error)) << error;

  snapshot::CurveRecord bad = rec;
  bad.times = {5, 7, 22};  // must start at 0
  EXPECT_FALSE(snapshot::validate_curve(bad, &error));

  bad = rec;
  bad.values = {1, 4, 4};  // must be strictly increasing
  EXPECT_FALSE(snapshot::validate_curve(bad, &error));

  bad = rec;
  bad.horizon = 21;  // below the last breakpoint
  EXPECT_FALSE(snapshot::validate_curve(bad, &error));

  bad = rec;
  bad.tail_period = 0;  // tail period must be >= 1
  EXPECT_FALSE(snapshot::validate_curve(bad, &error));
}

TEST(SnapshotWarmStart, BitIdenticalAcrossAllSixKinds) {
  const ScratchFile file("six_kinds");

  // Cold run of one request per kind, then persist the warmth.
  std::vector<svc::AnalysisOutcome> cold;
  {
    engine::Workspace ws(true);
    std::uint64_t id = 1;
    for (const svc::AnalysisKind kind : svc::kAllAnalysisKinds) {
      cold.push_back(
          svc::run_request(ws, request_of_kind(kind, id, 100 + id)));
      ++id;
    }
    std::string error;
    ASSERT_TRUE(ws.save_snapshot(file.path, &error)) << error;
  }

  // Fresh workspace, warm-started from disk: outcomes are bit-identical
  // and the warm run answers the curve queries from the cache.
  engine::Workspace warm(true);
  std::string error;
  ASSERT_TRUE(warm.load_snapshot(file.path, &error)) << error;
  const engine::WorkspaceStats before = warm.stats();
  EXPECT_GT(before.bytes, 0u);
  std::uint64_t id = 1;
  for (const svc::AnalysisKind kind : svc::kAllAnalysisKinds) {
    const svc::AnalysisOutcome out =
        svc::run_request(warm, request_of_kind(kind, id, 100 + id));
    expect_same_outcome(cold[id - 1], out);
    ++id;
  }
  const engine::WorkspaceStats after = warm.stats();
  EXPECT_GT(after.hits, before.hits);
}

TEST(SnapshotWarmStart, SaveLoadRoundTripIsStable) {
  // Loading what save wrote and saving again reproduces the same bytes:
  // nothing is lost or reordered by a round trip through the tables.
  const ScratchFile first("stable_a");
  const ScratchFile second("stable_b");
  {
    engine::Workspace ws(true);
    (void)svc::run_request(
        ws, request_of_kind(svc::AnalysisKind::kStructural, 1, 101));
    (void)svc::run_request(ws,
                           request_of_kind(svc::AnalysisKind::kEdf, 2, 102));
    ASSERT_TRUE(ws.save_snapshot(first.path));
  }
  engine::Workspace reloaded(true);
  ASSERT_TRUE(reloaded.load_snapshot(first.path));
  ASSERT_TRUE(reloaded.save_snapshot(second.path));

  EXPECT_EQ(slurp_file(first.path), slurp_file(second.path));
}

TEST(SnapshotWarmStart, RejectedAndMissingFilesColdStartClean) {
  obs::set_enabled(true);
  const ScratchFile file("rejected");

  engine::Workspace seed(true);
  (void)svc::run_request(
      seed, request_of_kind(svc::AnalysisKind::kStructural, 1, 300));
  ASSERT_TRUE(seed.save_snapshot(file.path));
  const std::string bytes = slurp_file(file.path);
  ASSERT_GT(bytes.size(), 32u);

  obs::Counter& rejected = obs::counter("snapshot.rejected");
  const svc::AnalysisOutcome want = [&] {
    engine::Workspace ws(true);
    return svc::run_request(
        ws, request_of_kind(svc::AnalysisKind::kStructural, 1, 300));
  }();

  const auto expect_cold_start = [&](const std::string& corrupt,
                                     const char* what) {
    {
      std::ofstream out(file.path, std::ios::binary | std::ios::trunc);
      out.write(corrupt.data(),
                static_cast<std::streamsize>(corrupt.size()));
    }
    const std::uint64_t rejections = rejected.value();
    engine::Workspace ws(true);
    std::string error;
    EXPECT_FALSE(ws.load_snapshot(file.path, &error)) << what;
    EXPECT_FALSE(error.empty()) << what;
    EXPECT_EQ(rejected.value(), rejections + 1) << what;
    // Nothing was applied and the workspace still answers correctly.
    EXPECT_EQ(ws.stats().bytes, 0u) << what;
    expect_same_outcome(want, svc::run_request(ws, request_of_kind(
                                  svc::AnalysisKind::kStructural, 1, 300)));
  };

  std::string corrupt = bytes;
  corrupt[0] ^= 0x20;
  expect_cold_start(corrupt, "bad magic");

  corrupt = bytes;
  corrupt[8] = 0x09;
  expect_cold_start(corrupt, "future version");

  corrupt = bytes;
  corrupt[corrupt.size() - 1] ^= 0x01;
  expect_cold_start(corrupt, "flipped checksum byte");

  expect_cold_start("short", "garbage file");

  // Missing file: quiet cold start, no rejection counted.
  const std::uint64_t rejections = rejected.value();
  std::error_code ec;
  fs::remove(file.path, ec);
  engine::Workspace ws(true);
  std::string error;
  EXPECT_FALSE(ws.load_snapshot(file.path, &error));
  EXPECT_EQ(rejected.value(), rejections);
}

TEST(SnapshotWarmStart, ServiceRestartServesWarmBitIdentical) {
  const ScratchFile file("service_restart");
  std::vector<svc::AnalysisRequest> reqs;
  std::uint64_t id = 1;
  for (const svc::AnalysisKind kind : svc::kAllAnalysisKinds) {
    reqs.push_back(request_of_kind(kind, id, 200 + id));
    ++id;
  }

  svc::ServiceOptions opts;
  opts.shards = 2;
  opts.snapshot_path = file.path;
  std::vector<svc::AnalysisOutcome> cold;
  {
    svc::Service service(opts);
    cold = service.run_all(reqs);
    // Destructor saves the final snapshot.
  }
  ASSERT_TRUE(fs::exists(file.path));

  svc::Service restarted(opts);
  const engine::WorkspaceStats loaded = restarted.workspace().stats();
  EXPECT_GT(loaded.bytes, 0u);
  const std::vector<svc::AnalysisOutcome> warm = restarted.run_all(reqs);
  ASSERT_EQ(cold.size(), warm.size());
  for (std::size_t i = 0; i < cold.size(); ++i) {
    expect_same_outcome(cold[i], warm[i]);
  }
  EXPECT_GT(restarted.workspace().stats().hits, loaded.hits);
}

TEST(SnapshotWireFormat, PinnedFileReloadsAndRecomputesByteIdentical) {
  const std::string v1_fixture =
      std::string(STRT_TEST_DATA_DIR) + "/snapshot_v1_parent.snap";
  const std::string want =
      slurp_file(std::string(STRT_TEST_DATA_DIR) + "/snapshot_v2.snap");
  const snapshot::DecodeResult decoded = snapshot::decode(want);
  ASSERT_TRUE(decoded.ok) << decoded.error;
  EXPECT_EQ(want[8], 2) << "version field";
  EXPECT_FALSE(decoded.snap.curves.empty());
  EXPECT_FALSE(decoded.snap.rbf.empty());
  EXPECT_FALSE(decoded.snap.dbf.empty());
  EXPECT_FALSE(decoded.snap.sbf.empty());
  EXPECT_FALSE(decoded.snap.derived.empty());

  // The v2 records are the v1 file's minus its coarse section and the
  // curves only that section referenced: the four coarse results below.
  const std::string v1 = slurp_file(v1_fixture);
  const snapshot::DecodeResult old = snapshot::decode(v1);
  ASSERT_TRUE(old.ok) << old.error;
  EXPECT_EQ(old.snap.curves, decoded.snap.curves);
  EXPECT_EQ(old.snap.rbf, decoded.snap.rbf);
  EXPECT_EQ(old.snap.dbf, decoded.snap.dbf);
  EXPECT_EQ(old.snap.sbf, decoded.snap.sbf);
  EXPECT_EQ(old.snap.derived, decoded.snap.derived);
  // The first v1 section is the curves; its payload opens with the count.
  ASSERT_EQ(v1[24], static_cast<char>(snapshot::SectionId::kCurves));
  const std::uint64_t v1_curves = u64_at(v1, 40);
  const std::uint64_t coarse_only[] = {0x053d3d3420917ba1, 0x0b5bc38c327604c2,
                                       0x6eaca36ad1adbb16, 0xf6ab0e402fc075ff};
  EXPECT_EQ(v1_curves, decoded.snap.curves.size() + std::size(coarse_only));
  for (const snapshot::CurveRecord& c : decoded.snap.curves) {
    for (const std::uint64_t fp : coarse_only) EXPECT_NE(c.fp, fp);
  }

  // Load the v1 file and re-save: every surviving record makes the trip
  // through the tables, and the result is the v2 fixture.
  std::string error;
  engine::Workspace loaded(true);
  ASSERT_TRUE(loaded.load_snapshot(v1_fixture, &error)) << error;
  const ScratchFile resaved("fixture_resaved");
  ASSERT_TRUE(loaded.save_snapshot(resaved.path, &error)) << error;
  EXPECT_EQ(slurp_file(resaved.path), want);

  // The same requests run cold here save the same bytes.
  engine::Workspace cold(true);
  for (const svc::AnalysisRequest& req : fixture_requests()) {
    const svc::AnalysisOutcome out = svc::run_request(cold, req);
    ASSERT_EQ(out.status, svc::OutcomeStatus::kOk) << out.error;
  }
  const ScratchFile recomputed("fixture_recomputed");
  ASSERT_TRUE(cold.save_snapshot(recomputed.path, &error)) << error;
  EXPECT_EQ(slurp_file(recomputed.path), want);
}

TEST(SnapshotWireFormat, StrtSnapshotFileLoadsWithRecords) {
  const std::string path = cfg::get_string("STRT_SNAPSHOT", "");
  if (path.empty()) GTEST_SKIP() << "STRT_SNAPSHOT is unset";
  const snapshot::LoadResult file = snapshot::read_file(path);
  ASSERT_EQ(file.status, snapshot::LoadResult::Status::kOk)
      << path << ": " << file.error;
  EXPECT_GE(file.snap.entry_count(), 1u);
  engine::Workspace ws(true);
  std::string error;
  EXPECT_TRUE(ws.load_snapshot(path, &error)) << error;
  EXPECT_GT(ws.stats().bytes, 0u);
}

TEST(Eviction, BudgetIsEnforcedAndAnswersAreUnchanged) {
  obs::set_enabled(true);
  const std::vector<svc::AnalysisRequest> reqs = every_family_requests(400);

  // Unbudgeted baseline: how many bytes does this workload intern, and
  // what does it answer?
  engine::Workspace baseline(true);
  std::vector<svc::AnalysisOutcome> want;
  for (const svc::AnalysisRequest& req : reqs) {
    want.push_back(svc::run_request(baseline, req));
  }
  const std::uint64_t full_bytes = baseline.stats().bytes;
  ASSERT_GT(full_bytes, 0u);

  // A budget of half the full working set forces evictions along the
  // way; every outcome stays bit-identical (evicted = recompute).
  engine::Workspace tight(true, full_bytes / 2);
  EXPECT_EQ(tight.cache_bytes_budget(), full_bytes / 2);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    expect_same_outcome(want[i], svc::run_request(tight, reqs[i]));
  }
  const engine::WorkspaceStats stats = tight.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.evicted_bytes, 0u);
  EXPECT_LE(stats.bytes, full_bytes / 2);

  // Evict everything evictable, then query again: every family the
  // requests warmed misses again and recomputes the same answers.
  const char* const families[] = {"intern", "validate", "rbf",
                                  "dbf",    "sbf",      "derived"};
  const auto misses = [](const std::string& family) {
    return obs::counter("cache." + family + ".misses").value();
  };
  std::map<std::string, std::uint64_t> before;
  for (const char* family : families) before[family] = misses(family);
  tight.set_cache_bytes_budget(1);
  EXPECT_EQ(tight.stats().bytes, 0u);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    expect_same_outcome(want[i], svc::run_request(tight, reqs[i]));
  }
  for (const char* family : families) {
    EXPECT_GT(misses(family), before[family]) << family;
  }
}

TEST(Eviction, PinnedBatchGroupsSurvive) {
  engine::Workspace ws(true);
  // Warm two distinct systems, then arm a tiny budget while a pin taken
  // *before* the second system's queries is alive: every group touched
  // since the pin is exempt, so only the first (stale) system may go.
  const svc::AnalysisRequest old_req =
      request_of_kind(svc::AnalysisKind::kStructural, 1, 500);
  (void)svc::run_request(ws, old_req);

  {
    const engine::Workspace::BatchPin pin = ws.pin_batch();
    // pin_batch() is a no-op until a budget is armed; re-take it after.
    ws.set_cache_bytes_budget(1);  // evict-everything-possible budget
    const engine::Workspace::BatchPin live_pin = ws.pin_batch();
    const svc::AnalysisRequest fresh_req =
        request_of_kind(svc::AnalysisKind::kStructural, 2, 501);
    (void)svc::run_request(ws, fresh_req);
    const std::uint64_t evicted_while_pinned = ws.stats().evicted_bytes;
    // The freshly warmed groups are pinned: repeated queries still hit.
    const std::uint64_t hits_before = ws.stats().hits;
    (void)svc::run_request(ws, fresh_req);
    EXPECT_GT(ws.stats().hits, hits_before);
    EXPECT_EQ(ws.stats().evicted_bytes, evicted_while_pinned);
  }

  // Pins released: the 1-byte budget can now evict the lot.
  ws.set_cache_bytes_budget(1);
  EXPECT_EQ(ws.stats().bytes, 0u);
  EXPECT_GT(ws.stats().evictions, 0u);
}

TEST(SnapshotConcurrency, SaveAndLoadRaceLiveQueries) {
  const ScratchFile file("concurrent");
  engine::Workspace seed(true);
  (void)svc::run_request(
      seed, request_of_kind(svc::AnalysisKind::kStructural, 1, 600));
  ASSERT_TRUE(seed.save_snapshot(file.path));

  engine::Workspace shared(true);
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < 2; ++t) {
    workers.emplace_back([&shared, t, &stop] {
      std::uint64_t s = 600 + static_cast<std::uint64_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        (void)svc::run_request(
            shared, request_of_kind(svc::AnalysisKind::kStructural, 1, s));
        s = 600 + (s + 1) % 4;
      }
    });
  }
  for (int round = 0; round < 4; ++round) {
    (void)shared.load_snapshot(file.path);
    std::string error;
    EXPECT_TRUE(shared.save_snapshot(file.path, &error)) << error;
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& w : workers) w.join();

  // The file is still a valid snapshot after the dust settles.
  engine::Workspace check(true);
  EXPECT_TRUE(check.load_snapshot(file.path));
}

}  // namespace
}  // namespace strt
