#include "telemetry/table.hpp"

#include <optional>
#include <utility>

#include "common/bytes.hpp"
#include "common/check.hpp"

namespace gpawfd::telemetry {

namespace {

std::uint32_t read_u16(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8);
}

void append_u16(std::vector<std::uint8_t>& out, std::size_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xff));
}

bool row_type_ok(std::uint8_t type) {
  return type == static_cast<std::uint8_t>(RowType::kRow);
}

/// The four strings' bytes: run_id, source and key non-empty, every
/// field within kMaxFieldBytes.
std::optional<std::size_t> row_payload_bytes(const std::uint8_t* header) {
  const std::uint32_t run_len = read_u16(header + 32);
  const std::uint32_t source_len = read_u16(header + 34);
  const std::uint32_t key_len = read_u16(header + 36);
  const std::uint32_t tags_len = read_u16(header + 38);
  if (run_len == 0 || run_len > kMaxFieldBytes) return std::nullopt;
  if (source_len == 0 || source_len > kMaxFieldBytes) return std::nullopt;
  if (key_len == 0 || key_len > kMaxFieldBytes) return std::nullopt;
  if (tags_len > kMaxFieldBytes) return std::nullopt;
  return std::size_t{run_len} + source_len + key_len + tags_len;
}

constexpr RecordFormat kTableFormat{"telemetry table", kTableMagic,
                                    kTableVersion, row_type_ok,
                                    row_payload_bytes};

std::string run_id_of(const RecordLog::Record& r) {
  return {reinterpret_cast<const char*>(r.payload), read_u16(r.header + 32)};
}

bool field_ok(const std::string& s) { return s.size() <= kMaxFieldBytes; }

}  // namespace

TelemetryTable::TelemetryTable(std::string path)
    : log_(std::move(path), kTableFormat) {}

std::uint64_t TelemetryTable::append(std::span<const TelemetryRow> rows) {
  std::uint64_t seq = log_.next_sequence();
  std::vector<std::uint8_t> buf;
  for (const TelemetryRow& row : rows) {
    GPAWFD_CHECK_MSG(!row.run_id.empty() && !row.source.empty() &&
                         !row.key.empty(),
                     "telemetry row run_id/source/key must be non-empty");
    GPAWFD_CHECK_MSG(field_ok(row.run_id) && field_ok(row.source) &&
                         field_ok(row.key) && field_ok(row.tags),
                     "telemetry row field exceeds " << kMaxFieldBytes
                                                    << " bytes");
    const std::size_t start = log_.begin_record(
        buf, static_cast<std::uint8_t>(RowType::kRow), seq++);
    append_double(buf, row.time);
    append_double(buf, row.value);
    append_u16(buf, row.run_id.size());
    append_u16(buf, row.source.size());
    append_u16(buf, row.key.size());
    append_u16(buf, row.tags.size());
    log_.end_record(buf, start,
                    {byte_span(row.run_id), byte_span(row.source),
                     byte_span(row.key), byte_span(row.tags)});
  }
  log_.append(buf, static_cast<std::int64_t>(rows.size()));
  for (const TelemetryRow& row : rows) note_run(row.run_id);
  return log_.end();
}

std::uint64_t TelemetryTable::append_row(const TelemetryRow& row) {
  return append({&row, 1});
}

std::uint64_t TelemetryTable::append_rows(
    const std::vector<TelemetryRow>& rows) {
  return append(rows);
}

void TelemetryTable::note_run(const std::string& run_id) {
  if (run_set_.insert(run_id).second) runs_.push_back(run_id);
}

std::uint64_t TelemetryTable::recover_stream(
    const std::function<void(TelemetryRow&&)>& emit, TableRecoveryStats* stats,
    bool repair) {
  runs_.clear();
  run_set_.clear();
  const RecordLog::ScanStats scan = log_.scan(
      [&](const RecordLog::Record& r) {
        const std::size_t run_len = read_u16(r.header + 32);
        const std::size_t source_len = read_u16(r.header + 34);
        const std::size_t key_len = read_u16(r.header + 36);
        const char* p = reinterpret_cast<const char*>(r.payload);
        TelemetryRow row;
        row.run_id.assign(p, run_len);
        row.source.assign(p + run_len, source_len);
        row.key.assign(p + run_len + source_len, key_len);
        row.tags.assign(p + run_len + source_len + key_len,
                        r.payload_bytes - run_len - source_len - key_len);
        row.time = read_double(r.header + 16);
        row.value = read_double(r.header + 24);
        row.sequence = r.sequence;
        note_run(row.run_id);
        emit(std::move(row));
      },
      repair);
  if (stats) {
    stats->rows_scanned = scan.records;
    stats->runs = static_cast<std::int64_t>(runs_.size());
    stats->truncated_bytes = scan.truncated_bytes;
    stats->truncated = scan.truncated_bytes != 0;
  }
  return log_.end();
}

std::vector<TelemetryRow> TelemetryTable::recover(TableRecoveryStats* stats,
                                                  bool repair) {
  std::vector<TelemetryRow> rows;
  recover_stream([&](TelemetryRow&& row) { rows.push_back(std::move(row)); },
                 stats, repair);
  return rows;
}

bool TelemetryTable::compact_keep_runs(int keep_runs) {
  GPAWFD_CHECK_MSG(log_.recovered(),
                   "TelemetryTable::recover() must run before compaction");
  GPAWFD_CHECK(keep_runs >= 1);
  if (static_cast<int>(runs_.size()) <= keep_runs) return false;

  // Runs are recorded in first-appearance order, so the newest N are the
  // tail of runs_, and they keep that order among the survivors.
  std::vector<std::string> kept(runs_.end() - keep_runs, runs_.end());
  std::unordered_set<std::string> keep(kept.begin(), kept.end());
  log_.rewrite([&](const RecordLog::Record& r) {
    return keep.count(run_id_of(r)) > 0;
  });
  runs_ = std::move(kept);
  run_set_ = std::move(keep);
  ++compactions_;
  return true;
}

bool TelemetryTable::maybe_compact(int max_runs, std::int64_t min_rows) {
  if (max_runs <= 0) return false;
  if (total_rows() < min_rows) return false;
  if (static_cast<int>(runs_.size()) <= max_runs) return false;
  return compact_keep_runs(max_runs);
}

}  // namespace gpawfd::telemetry
