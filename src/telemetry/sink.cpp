#include "telemetry/sink.hpp"

#include <utility>

#include "common/check.hpp"
#include "trace/stats.hpp"

namespace gpawfd::telemetry {

namespace {

/// Recover synchronously before the writer starts: a table left torn by
/// a SIGKILL is repaired here, so the first append lands on the valid
/// prefix. Rows themselves are not replayed into memory — the table is
/// append-only history, not a cache.
std::unique_ptr<TelemetryTable> open_recovered(std::string path) {
  auto table = std::make_unique<TelemetryTable>(std::move(path));
  table->recover_stream([](TelemetryRow&&) {}, nullptr, /*repair=*/true);
  return table;
}

}  // namespace

TelemetrySink::TelemetrySink(std::string path, std::string run_id,
                             SinkConfig config)
    : table_(open_recovered(std::move(path))),
      run_id_(std::move(run_id)),
      config_(std::move(config)),
      queue_(
          config_.queue_capacity,
          [this](std::vector<TelemetryRow>& batch) {
            if (config_.on_write) config_.on_write(batch.front());
            table_->append_rows(batch);
          },
          [this] {
            table_->sync();
            return config_.compact_max_runs > 0 &&
                   table_->maybe_compact(config_.compact_max_runs,
                                         config_.compact_min_rows);
          }) {
  GPAWFD_CHECK(!run_id_.empty());
}

std::shared_ptr<TelemetrySink> TelemetrySink::open_in(const std::string& dir,
                                                      std::string run_id,
                                                      SinkConfig config) {
  return std::make_shared<TelemetrySink>(TelemetryTable::path_in(dir),
                                         std::move(run_id), std::move(config));
}

bool TelemetrySink::record(const std::string& source, const std::string& key,
                           double value, const std::string& tags) {
  TelemetryRow row;
  row.run_id = run_id_;
  row.source = source;
  row.key = key;
  row.tags = tags;
  row.value = value;
  row.time = trace::unix_seconds();
  return queue_.push(std::move(row));
}

}  // namespace gpawfd::telemetry
