// Batch analysis server driver: read a stream of analysis requests, serve
// them from one long-lived svc::Service, and emit one structured report
// line per request plus a run summary.
//
//   $ ./examples/strt_serve <requests-file> [--format jsonl|csv]
//   $ ./examples/strt_serve                 # runs a built-in demo stream
//
// Output is JSON lines (schema strt.obs.report.v2, see README
// "Observability"): one line per request -- id, kind, status, headline
// result fields, diagnostics, queue/run wall times, batch key and size,
// the cache delta, and the request's span trace -- followed by one
// summary line with the service totals.  With `--report out.json` the
// lines are appended to the file instead and a human-readable table goes
// to stdout.  With `--telemetry-dir DIR` live telemetry (metrics.prom,
// events.jsonl, Perfetto-loadable trace.json) is exported under DIR;
// the flag also turns the observability registry on.
//
// Request stream formats (see src/svc/request_stream.hpp):
//
//   jsonl  one JSON object per line:
//          {"id": 1, "kind": "structural", "supply": "tdma slot 3 cycle 8",
//           "task": "task t\nvertex A wcet 2 deadline 10\nedge A A sep 10"}
//          optional: "tasks" (array of task texts), "max_states",
//          "progress_every", "want_witness", "max_paths",
//          "delay_cap", "max_wcet_growth", "deadline_ms"
//   csv    id,kind,supply,task_file[,task_file...]; task files are
//          resolved relative to --task-dir
//
// Malformed lines do not stop the stream: each yields a report line with
// status "invalid" carrying the parse diagnostics.
//
// Service knobs: --queue N (admission queue bound), --batch N (dispatch
// window), --shards N (worker shard count; defaults to the STRT_SHARDS
// environment variable, else 1), --no-cache (cold workspace ablation),
// --threads N, --snapshot PATH (persistent warm-start cache:
// loaded at startup, saved crash-safe at every drain and at shutdown;
// defaults to STRT_SNAPSHOT), --cache-budget BYTES (interned-curve bytes
// budget with K/M/G suffixes, e.g. 64M; defaults to STRT_CACHE_BUDGET).
// Results are bit-identical across all of these; only the timings move.
// The summary report line embeds the resolved effective configuration
// under "config" (flag > STRT_* env > default, per knob).  --coarsen G switches every structural
// request to the coarse-first certified path at starting granularity G
// (reports carry structural.certified_error); that one is an
// approximation knob, not an ablation.
//
// --lockdep-report prints the lock-order analysis summary (src/race/
// lockdep.hpp) after the run; in a -DSTRT_LOCKDEP=ON build any detected
// inversion is also a nonzero exit.  The CI race leg serves the demo
// stream this way and requires "0 cycle(s)".

#include <algorithm>
#include <fstream>
#include <future>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "base/config.hpp"
#include "engine/workspace.hpp"
#include "exec/exec.hpp"
#include "io/table.hpp"
#include "obs/counters.hpp"
#include "obs/report.hpp"
#include "race/lockdep.hpp"
#include "svc/request_stream.hpp"
#include "svc/service.hpp"

using namespace strt;

namespace {

// Two structural requests over the same task system (they share one
// fingerprint batch and every memo), plus one request of each remaining
// kind over a clean two-task set.
constexpr const char* kDemoStream = R"(# strt_serve demo request stream
{"id": 1, "kind": "structural", "supply": "tdma slot 3 cycle 8", "task": "task cruise\nvertex A wcet 2 deadline 10\nvertex B wcet 3 deadline 12\nedge A B sep 10\nedge B A sep 15"}
{"id": 2, "kind": "structural", "supply": "tdma slot 3 cycle 8", "task": "task cruise\nvertex A wcet 2 deadline 10\nvertex B wcet 3 deadline 12\nedge A B sep 10\nedge B A sep 15", "want_witness": true}
{"id": 3, "kind": "sensitivity", "supply": "tdma slot 3 cycle 8", "task": "task cruise\nvertex A wcet 2 deadline 10\nvertex B wcet 3 deadline 12\nedge A B sep 10\nedge B A sep 15"}
{"id": 4, "kind": "fp", "supply": "dedicated rate 1", "tasks": ["task hi\nvertex H wcet 1 deadline 6\nedge H H sep 6", "task lo\nvertex L wcet 2 deadline 14\nedge L L sep 14"]}
{"id": 5, "kind": "edf", "supply": "dedicated rate 1", "tasks": ["task hi\nvertex H wcet 1 deadline 6\nedge H H sep 6", "task lo\nvertex L wcet 2 deadline 14\nedge L L sep 14"]}
{"id": 6, "kind": "joint_fp", "supply": "dedicated rate 1", "tasks": ["task hi\nvertex H wcet 1 deadline 6\nedge H H sep 6", "task lo\nvertex L wcet 2 deadline 14\nedge L L sep 14"]}
{"id": 7, "kind": "audsley", "supply": "dedicated rate 1", "tasks": ["task hi\nvertex H wcet 1 deadline 6\nedge H H sep 6", "task lo\nvertex L wcet 2 deadline 14\nedge L L sep 14"]}
)";

/// Report line for a request that never reached the service (parse
/// failure): status invalid + the stream diagnostics.
/// Lockdep-to-telemetry bridge: each lock-order inversion bumps the
/// race.lock_cycles counter and lands on stderr the moment it is
/// detected, not only in the end-of-run --lockdep-report summary.
void on_lock_cycle(const race::LockCycle& cycle) {
  obs::counter("race.lock_cycles").add();
  std::cerr << cycle.message << '\n';
}

svc::AnalysisOutcome parse_failure_outcome(const svc::RequestParse& parse) {
  svc::AnalysisOutcome out;
  out.status = svc::OutcomeStatus::kInvalid;
  out.error = "request stream parse failed";
  out.diagnostics = parse.diagnostics;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string report_path;
  std::string format_name = "jsonl";
  std::string task_dir;
  svc::ServiceOptions sopts;
  std::int64_t coarsen_g = 0;
  bool lockdep_report = false;
  std::vector<std::string> args;

  race::lockdep_set_cycle_hook(&on_lock_cycle);

  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    const auto next_value = [&](const char* what) -> std::string {
      if (i + 1 >= argc) {
        std::cerr << arg << " requires " << what << '\n';
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--report") {
      report_path = next_value("a file path");
    } else if (arg == "--format") {
      format_name = next_value("jsonl or csv");
    } else if (arg == "--task-dir") {
      task_dir = next_value("a directory");
    } else if (arg == "--queue") {
      sopts.queue_capacity = std::stoull(next_value("a count"));
    } else if (arg == "--batch") {
      sopts.max_batch = std::stoull(next_value("a count"));
    } else if (arg == "--shards") {
      sopts.shards = std::stoull(next_value("a count"));
    } else if (arg == "--no-cache") {
      sopts.caching = false;
    } else if (arg == "--snapshot") {
      sopts.snapshot_path = next_value("a file path");
    } else if (arg == "--cache-budget") {
      const std::string text = next_value("a byte count (e.g. 64M)");
      const std::optional<std::uint64_t> bytes = cfg::parse_bytes(text);
      if (!bytes || *bytes == 0) {
        std::cerr << "--cache-budget: cannot parse '" << text << "'\n";
        return 2;
      }
      sopts.cache_bytes_budget = *bytes;
    } else if (arg == "--coarsen") {
      coarsen_g = std::stoll(next_value("a granularity"));
      if (coarsen_g < 1) {
        std::cerr << "--coarsen granularity must be >= 1\n";
        return 2;
      }
    } else if (arg == "--threads") {
      exec::set_thread_count(std::stoull(next_value("a count")));
    } else if (arg == "--lockdep-report") {
      // Print the lock-order analysis summary after the run.  Only a
      // -DSTRT_LOCKDEP=ON build records acquisitions; elsewhere the
      // report shows zeros (and, correctly, zero cycles).
      lockdep_report = true;
    } else if (arg == "--telemetry-dir") {
      sopts.telemetry_dir = next_value("a directory");
      // Live export is only useful with the registry on: histograms and
      // counters would otherwise stay empty.
      obs::set_enabled(true);
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "unknown flag '" << arg << "'\n"
                << "usage: strt_serve [requests-file] [--format jsonl|csv] "
                   "[--task-dir DIR] [--report out.json] [--queue N] "
                   "[--batch N] [--shards N] "
                   "[--no-cache] [--snapshot PATH] [--cache-budget BYTES] "
                   "[--threads N] [--telemetry-dir DIR] "
                   "[--coarsen G] [--lockdep-report]\n";
      return 2;
    } else {
      args.push_back(arg);
    }
  }

  const std::optional<svc::StreamFormat> format =
      svc::format_from_name(format_name);
  if (!format) {
    std::cerr << "unknown format '" << format_name
              << "' (expected jsonl or csv)\n";
    return 2;
  }

  // Parse the whole stream up front; the parses keep input order.
  std::vector<svc::RequestParse> parses;
  if (args.empty()) {
    std::istringstream demo(kDemoStream);
    parses = svc::read_request_stream(demo, *format, task_dir);
  } else {
    std::ifstream in(args[0]);
    if (!in) {
      std::cerr << "cannot open requests file '" << args[0] << "'\n";
      return 2;
    }
    parses = svc::read_request_stream(in, *format, task_dir);
  }

  if (coarsen_g > 0) {
    for (svc::RequestParse& parse : parses) {
      if (parse.request) parse.request->common.coarsen_g = Time(coarsen_g);
    }
  }

  // Serve everything through one long-lived service: submit in input
  // order (blocking admission = backpressure), collect in input order.
  // Dispatch starts paused so the whole stream lands in one dispatch
  // window and fingerprint batching is visible; once any shard's ring
  // could be about to fill -- every request might route to one shard --
  // dispatch resumes (a blocking submit on a paused full ring would
  // never unblock).
  sopts.start_paused = true;
  svc::Service service(sopts);
  const std::size_t per_shard_capacity = std::max<std::size_t>(
      1, service.options().queue_capacity / service.shard_count());
  std::vector<std::optional<std::future<svc::AnalysisOutcome>>> futures;
  futures.reserve(parses.size());
  std::size_t queued = 0;
  for (const svc::RequestParse& parse : parses) {
    if (parse.request) {
      if (queued == per_shard_capacity) service.resume();
      futures.push_back(service.submit(*parse.request));
      ++queued;
    } else {
      futures.push_back(std::nullopt);
    }
  }
  service.resume();

  std::ofstream report_file;
  if (!report_path.empty()) {
    report_file.open(report_path, std::ios::app);
    if (!report_file) {
      std::cerr << "cannot open report file '" << report_path << "'\n";
      return 2;
    }
  }
  std::ostream& lines = report_path.empty() ? std::cout : report_file;

  Table table({"id", "kind", "status", "queue us", "run us", "batch",
               "cache hits"});
  std::uint64_t ok = 0;
  std::uint64_t invalid = 0;
  std::uint64_t expired = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t errors = 0;
  std::int64_t total_queue_us = 0;
  std::int64_t total_run_us = 0;
  for (std::size_t i = 0; i < parses.size(); ++i) {
    svc::AnalysisOutcome outcome =
        futures[i] ? futures[i]->get() : parse_failure_outcome(parses[i]);
    switch (outcome.status) {
      case svc::OutcomeStatus::kOk: ++ok; break;
      case svc::OutcomeStatus::kInvalid: ++invalid; break;
      case svc::OutcomeStatus::kDeadlineExpired: ++expired; break;
      case svc::OutcomeStatus::kCancelled: ++cancelled; break;
      default: ++errors; break;
    }
    total_queue_us += outcome.stats.queue_us;
    total_run_us += outcome.stats.run_us;
    obs::RunReport line("strt_serve.request");
    outcome.append_to_report(line);
    line.set_trace(std::move(outcome.trace));
    line.write_json_line(lines);
    table.add_row({std::to_string(outcome.id),
                   std::string(svc::kind_name(outcome.kind)),
                   std::string(svc::status_name(outcome.status)),
                   std::to_string(outcome.stats.queue_us),
                   std::to_string(outcome.stats.run_us),
                   std::to_string(outcome.stats.batch_size),
                   std::to_string(outcome.stats.cache_hits)});
  }
  service.drain();

  // Run summary: service totals, the shared workspace's cache numbers,
  // and (under STRT_OBS=1) the global counters and span profile.
  const svc::ServiceStats stats = service.stats();
  const engine::WorkspaceStats cache = service.workspace().stats();
  obs::RunReport summary("strt_serve.summary");
  summary.put("requests", static_cast<std::int64_t>(parses.size()));
  summary.put("ok", ok);
  summary.put("invalid", invalid);
  summary.put("deadline_expired", expired);
  summary.put("cancelled", cancelled);
  summary.put("errors", errors);
  summary.put("svc.shards", static_cast<std::int64_t>(service.shard_count()));
  summary.put("svc.submitted", stats.submitted);
  summary.put("svc.served", stats.served);
  summary.put("svc.batches", stats.batches);
  summary.put("svc.batched_requests", stats.batched_requests);
  summary.put("svc.total_queue_us", total_queue_us);
  summary.put("svc.total_run_us", total_run_us);
  summary.put("cache.enabled", service.workspace().caching());
  summary.put("cache.hits", static_cast<std::int64_t>(cache.hits));
  summary.put("cache.misses", static_cast<std::int64_t>(cache.misses));
  summary.put("cache.bytes", static_cast<std::int64_t>(cache.bytes));
  summary.put("cache.evictions", static_cast<std::int64_t>(cache.evictions));
  if (!service.options().snapshot_path.empty()) {
    summary.put("snapshot.path", service.options().snapshot_path);
  }
  // The exact configuration this run resolved (flag > STRT_* env >
  // default, per knob), so a report is reproducible on its own.
  summary.put_json("config", cfg::effective_config_json());
  summary.capture();
  summary.write_json_line(lines);

  if (!report_path.empty()) {
    table.print(std::cout);
    std::cout << "\nServed " << stats.served << " of " << parses.size()
              << " request(s) in " << stats.batches << " batch(es); "
              << "reports appended to " << report_path << '\n';
  }
  // The lock-order verdict covers everything above: service lifecycle,
  // sharded dispatch, workspace stripes, telemetry export.  A detected
  // inversion is a hard failure, same as an analysis error.
  const race::LockdepStats lockdep = race::lockdep_stats();
  if (lockdep_report) {
    std::cout << race::lockdep_report();
  }
  return errors > 0 || lockdep.cycles > 0 ? 1 : 0;
}
