// The async telemetry sink: producers on any thread call record() and a
// common/write_behind thread drains the bounded queue into the
// TelemetryTable — the gacspp COutput buffered-writer pattern with the
// write-behind contract (DESIGN.md §17). record() never blocks on I/O;
// when the queue is full the *oldest* pending row is dropped (counted —
// recorded == written + dropped reconciles at quiescence), because
// telemetry must never add latency to the thing it measures. Each drain
// swap lands as one contiguous append + one fsync.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/write_behind.hpp"
#include "telemetry/table.hpp"

namespace gpawfd::telemetry {

struct SinkConfig {
  /// Bounded queue between record() and the table. When full the oldest
  /// pending row is dropped (counted), never the newest — the freshest
  /// sample is the one the trajectory wants — and never the caller's
  /// time: record() does no I/O.
  std::size_t queue_capacity = 1024;
  /// Retention: after a flush, keep only the newest `compact_max_runs`
  /// distinct run_ids when the table holds more than that many runs and
  /// at least compact_min_rows rows (<= 0 disables).
  int compact_max_runs = 0;
  std::int64_t compact_min_rows = 4096;
  /// Test hook: runs on the writer thread just before each append batch
  /// (e.g. to gate writes and force the drop-oldest path determinately).
  std::function<void(const TelemetryRow& first)> on_write;
};

/// Owns a TelemetryTable plus the WriteBehind thread that drains rows
/// into it. Construction opens the table and runs recovery (repair=true)
/// synchronously, so a sink on a SIGKILLed table starts from the valid
/// prefix; then the writer thread starts.
class TelemetrySink {
 public:
  /// Every row this sink records carries `run_id`.
  TelemetrySink(std::string path, std::string run_id, SinkConfig config = {});
  ~TelemetrySink() = default;  // the queue's destructor shuts it down first
  TelemetrySink(const TelemetrySink&) = delete;
  TelemetrySink& operator=(const TelemetrySink&) = delete;

  /// Convenience: sink on TelemetryTable::path_in(dir).
  static std::shared_ptr<TelemetrySink> open_in(const std::string& dir,
                                                std::string run_id,
                                                SinkConfig config = {});

  /// Queue one row (stamped with unix wall-clock now). Safe from any
  /// thread; never blocks on I/O. Returns false when the enqueue caused
  /// a drop — the oldest pending row when full, this row after
  /// shutdown().
  bool record(const std::string& source, const std::string& key, double value,
              const std::string& tags = {});

  void flush() { queue_.flush(); }        // all recorded written + fsynced
  void shutdown() { queue_.shutdown(); }  // drain, fsync, stop; idempotent

  const std::string& run_id() const { return run_id_; }
  const TelemetryTable& table() const { return *table_; }

  std::int64_t recorded() const { return queue_.enqueued(); }
  std::int64_t written() const { return queue_.written(); }
  std::int64_t dropped() const { return queue_.dropped(); }
  std::int64_t flushes() const { return queue_.flushes(); }
  std::int64_t compactions() const { return queue_.compactions(); }

 private:
  std::unique_ptr<TelemetryTable> table_;
  std::string run_id_;
  SinkConfig config_;
  WriteBehind<TelemetryRow> queue_;  // last: its thread uses the rest
};

}  // namespace gpawfd::telemetry
