// strt::snapshot -- the versioned on-disk memo cache format
// (`strt.engine.snapshot.v2`; v1 files still decode).
//
// A snapshot persists an engine::Workspace's fingerprint-keyed memo
// families across process lifetimes: the interned curves themselves plus
// the rbf/dbf (with their full horizon metadata, so horizon-extension
// reuse works after reload), sbf and derived-op entries that reference
// them.  Entries are keyed by name-blind structural
// fingerprints, so a snapshot written by one server warms any other
// server analyzing the same systems -- the cross-lifetime analogue of
// the in-memory warm-batch speedup.
//
// Layout (all integers little-endian, fixed width):
//
//   header   8 bytes magic "STRTSNAP"
//            u32 version (= 2)
//            u32 endianness tag (= 0x01020304, written natively: a
//                byte-swapped reader sees 0x04030201 and rejects)
//            u32 section count
//            u32 reserved (= 0)
//   section  u32 section id   (1 curves, 2 rbf, 3 dbf, 4 sbf,
//                              5 derived)
//            u32 reserved (= 0)
//            u64 payload length in bytes
//            payload
//            u64 FNV-1a checksum of the payload bytes
//
// Section payloads are a u64 record count followed by that many records
// (see the *Record structs below for field order).  Memo records
// reference curves by the curve's content fingerprint; every referenced
// fingerprint must appear in the curves section.
//
// Version 1 differs only in a sixth section, id 6, which held the coarse-
// curve memo (no longer kept).  A v1 file still decodes: section 6 is
// framed and checksum-checked like any other, then skipped, and the
// curves are cut down to those a surviving record names (as a cached
// curve or a derived-op operand), which drops the ones only the coarse
// section used.  In a v2 file, id 6 is an unknown section.
//
// The decoder is written for hostile input (it is libFuzzer-hardened):
// every read is bounds-checked, counts are sanity-capped against the
// remaining payload, and any violation yields a clean DecodeResult
// error -- never a crash, never a partial snapshot.  Semantic
// validation (canonical staircase shape, fingerprint authenticity) is
// layered: validate_curve() here checks record-level canonical form;
// the engine loader re-fingerprints every curve before trusting a key.
//
// Writing is crash-safe: write_file() streams to `<path>.tmp` and
// renames into place, so a reader never observes a torn snapshot and a
// crashed writer leaves the previous snapshot intact.
//
// This library is deliberately std-only (no strt dependencies), so it
// sits below the engine in the link order and tools can reuse it.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace strt::snapshot {

inline constexpr std::string_view kMagic = "STRTSNAP";
inline constexpr std::uint32_t kVersion = 2;
inline constexpr std::uint32_t kEndianTag = 0x01020304;

/// Section ids, in the order sections are written.
enum class SectionId : std::uint32_t {
  kCurves = 1,
  kRbf = 2,
  kDbf = 3,
  kSbf = 4,
  kDerived = 5,
};

/// One interned curve: canonical breakpoints, horizon, optional periodic
/// tail, keyed by its content fingerprint.
struct CurveRecord {
  std::uint64_t fp = 0;
  std::int64_t horizon = 0;
  bool has_tail = false;
  std::int64_t tail_period = 1;
  std::int64_t tail_increment = 0;
  std::vector<std::int64_t> times;
  std::vector<std::int64_t> values;

  friend bool operator==(const CurveRecord&, const CurveRecord&) = default;
};

/// One task's rbf or dbf memo group: every horizon already answered,
/// each mapping to a curve fingerprint.  The largest horizon doubles as
/// the truncation source after reload (horizon-extension reuse).
struct WorkloadRecord {
  std::uint64_t task_fp = 0;
  std::vector<std::pair<std::int64_t, std::uint64_t>> by_horizon;

  friend bool operator==(const WorkloadRecord&, const WorkloadRecord&) =
      default;
};

/// One sbf memo entry: (supply description, horizon) -> curve.
struct SupplyRecord {
  std::string key;
  std::int64_t horizon = 0;
  std::uint64_t curve_fp = 0;

  friend bool operator==(const SupplyRecord&, const SupplyRecord&) = default;
};

/// One derived-op memo entry: (op, operand fingerprints) -> curve.
struct DerivedRecord {
  std::uint8_t op = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t curve_fp = 0;

  friend bool operator==(const DerivedRecord&, const DerivedRecord&) = default;
};

/// A decoded (or to-be-encoded) snapshot: one vector per section.
struct Snapshot {
  std::vector<CurveRecord> curves;
  std::vector<WorkloadRecord> rbf;
  std::vector<WorkloadRecord> dbf;
  std::vector<SupplyRecord> sbf;
  std::vector<DerivedRecord> derived;

  /// Total entries across every section (the snapshot.entries gauge);
  /// workload records count one entry per cached horizon.
  [[nodiscard]] std::uint64_t entry_count() const;
};

/// FNV-1a 64-bit over a byte string (the per-section checksum).
[[nodiscard]] std::uint64_t fnv1a64(std::string_view bytes);

/// Serializes `snap` into the v2 wire format.
[[nodiscard]] std::string encode(const Snapshot& snap);

struct DecodeResult {
  bool ok = false;
  Snapshot snap;
  std::string error;  // human-readable rejection reason when !ok
};

/// Parses the v2 (or v1) wire format.  Never throws; any malformation (bad
/// magic, wrong version or endianness, truncation, checksum mismatch,
/// out-of-bounds count) yields ok = false and a reason.
[[nodiscard]] DecodeResult decode(std::string_view bytes);

/// Record-level canonical-form check for one curve: times strictly
/// increasing and starting at 0, values strictly increasing, parallel
/// arrays, horizon >= the last breakpoint, tail period in [1, horizon]
/// with increment >= 0.  Returns false (with a reason when `error` is
/// non-null) instead of trusting hostile input.
[[nodiscard]] bool validate_curve(const CurveRecord& rec,
                                  std::string* error = nullptr);

/// Crash-safe write: encode + stream to `<path>.tmp` + rename into
/// place.  False (with a reason) on any filesystem failure; the
/// previous snapshot at `path`, if any, is left intact.
[[nodiscard]] bool write_file(const std::string& path, const Snapshot& snap,
                              std::string* error = nullptr);

struct LoadResult {
  enum class Status : std::uint8_t {
    kOk,        // decoded snapshot in `snap`
    kMissing,   // no file at `path` (a cold start, not an error)
    kRejected,  // unreadable or malformed (reason in `error`)
  };
  Status status = Status::kMissing;
  Snapshot snap;
  std::string error;
};

/// Reads and decodes a snapshot file.  Never throws.
[[nodiscard]] LoadResult read_file(const std::string& path);

}  // namespace strt::snapshot
