// The bench trajectory store: an append-only table file of typed
// telemetry rows (`run_id`, wall-clock, source, metric key, value,
// tags). Where BENCH_*.json is one JSON object per run and
// svc::Metrics::snapshot() is a point-in-time text block, this file is
// the *series*: every bench, scenario, and service run appends rows to
// the same table, and scripts/trajectory_report renders per-run series
// (throughput, p50/p99, hit ratio, Mpts/s) across PRs — the
// measure-then-decide discipline the source paper applies to kernel
// selection, applied to this repo's own performance.
//
// The framing, torn-tail recovery and atomic rewrite are
// common/record_log's, shared with the result store (DESIGN.md §17),
// so a bench SIGKILLed mid-run leaves a table whose fully-flushed rows
// all recover. This file is the table's codec and run index. Its format
// fields (header bytes 16-40) and payload:
//
//   offset size field
//   16     8    time        unix seconds at production time (f64)
//   24     8    value       the metric value (f64)
//   32     2    run_id_len  1..4096
//   34     2    source_len  1..4096
//   36     2    key_len     1..4096
//   38     2    tags_len    0..4096
//   44     ...  run_id, source, key, tags bytes (the CRC'd payload)
//
// "Compaction" here is retention: the table keeps the newest N distinct
// run_ids and rewrites the rest away, so a long-lived trajectory file
// does not grow without bound.
//
// TelemetryTable is single-threaded by contract; the TelemetrySink
// (sink.hpp) owns the concurrency story.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/record_log.hpp"

namespace gpawfd::telemetry {

inline constexpr std::uint32_t kTableMagic = 0x54545047;  // "GPTT" on disk
inline constexpr std::uint8_t kTableVersion = 1;
/// Header incl. the trailing CRC, excl. the string payload.
inline constexpr std::size_t kRowHeaderBytes = RecordLog::kHeaderBytes;
/// Sanity bound recovery enforces on every string length field before
/// trusting it; a flipped bit in a length must never make the scanner
/// swallow the rest of the table as one "row".
inline constexpr std::size_t kMaxFieldBytes = 4 * 1024;

enum class RowType : std::uint8_t {
  kRow = 1,  // the only row type in v1
};

/// One telemetry row. `sequence` is assigned by the table on append
/// (whatever the caller set is ignored) and strictly increases across
/// process lifetimes, so recovery can reject replayed/corrupt tails.
struct TelemetryRow {
  std::string run_id;  // one trajectory point (a PR, a CI run, a host)
  std::string source;  // producer ("bench.svc_service", "svc", ...)
  std::string key;     // metric key ("throughput_rps", "svc.executed")
  std::string tags;    // free-form "k=v,k=v"; "" when untagged
  double value = 0;
  double time = 0;  // trace::unix_seconds() at production time
  std::uint64_t sequence = 0;
};

struct TableRecoveryStats {
  std::int64_t rows_scanned = 0;     // rows that passed every check
  std::int64_t runs = 0;             // distinct run_ids among them
  std::int64_t truncated_bytes = 0;  // torn/corrupt tail dropped
  bool truncated = false;
};

class TelemetryTable {
 public:
  /// The table file a directory-configured producer uses, so every
  /// process given the same --telemetry-dir agrees on the path.
  static constexpr const char* kFileName = "telemetry.gptt";
  static std::string path_in(const std::string& dir) {
    return gpawfd::path_in(dir, kFileName);
  }

  /// Opens (creating if absent) the table at `path`. recover() must run
  /// before the first append — it establishes the valid end of the file
  /// and the next sequence number.
  explicit TelemetryTable(std::string path);

  /// Scan from the start, stop at the first torn/corrupt row, return
  /// every valid row in log order. With repair=true (the writer's mode)
  /// the file is truncated to the valid prefix; repair=false is a
  /// read-only scan, safe on a file another process is appending to.
  std::vector<TelemetryRow> recover(TableRecoveryStats* stats = nullptr,
                                    bool repair = true);

  /// Streaming flavour: bounded-chunk forward scan invoking `emit` for
  /// every valid row in log order, same checks and stop-at-first-bad-row
  /// contract as recover() (which is implemented on top of this, so the
  /// recovery torture tests exercise this parser). Establishes the
  /// writer state; returns the offset just past the last valid row.
  std::uint64_t recover_stream(
      const std::function<void(TelemetryRow&&)>& emit,
      TableRecoveryStats* stats = nullptr, bool repair = true);

  /// Append one row (sequence assigned here); returns the file offset
  /// just past it — a row boundary, where the torture tests truncate.
  /// Durable only after sync().
  std::uint64_t append_row(const TelemetryRow& row);
  /// Append every row as ONE contiguous write(2) — the sink drain's
  /// coalescing half. Byte-identical on disk to append_row in a loop.
  std::uint64_t append_rows(const std::vector<TelemetryRow>& rows);

  void sync() { log_.sync(); }  // fsync the table

  // ---- retention compaction -------------------------------------------
  /// Rewrite the table keeping only rows whose run_id is among the
  /// newest `keep_runs` distinct run_ids (first-appearance order), via
  /// temp file -> fsync -> atomic rename -> dir fsync. Sequences and
  /// times are preserved. Returns true when it rewrote anything.
  bool compact_keep_runs(int keep_runs);
  /// compact_keep_runs(max_runs) when the table holds more than
  /// `max_runs` distinct runs and at least `min_rows` rows.
  bool maybe_compact(int max_runs, std::int64_t min_rows = 4096);

  // ---- statistics -----------------------------------------------------
  const std::string& path() const { return log_.path(); }
  std::int64_t total_rows() const { return log_.records(); }
  std::uint64_t next_sequence() const { return log_.next_sequence(); }
  std::uint64_t size_bytes() const { return log_.end(); }
  /// Distinct run_ids in first-appearance order.
  const std::vector<std::string>& runs() const { return runs_; }
  std::int64_t compactions() const { return compactions_; }

 private:
  std::uint64_t append(std::span<const TelemetryRow> rows);
  void note_run(const std::string& run_id);

  RecordLog log_;
  std::vector<std::string> runs_;  // first-appearance order
  std::unordered_set<std::string> run_set_;
  std::int64_t compactions_ = 0;
};

}  // namespace gpawfd::telemetry
