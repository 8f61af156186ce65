// Append-only, crash-safe record log: the framing core under the result
// store (svc/cache_store) and the telemetry table (telemetry/table),
// which add only a codec and an index. Every record is a 44-byte
// little-endian header plus a payload:
//
//   offset size field
//   0      4    magic, per format
//   4      1    version, per format
//   5      1    type, per format
//   6      2    reserved (zero)
//   8      8    sequence, strictly increasing, never reused
//   16     24   the format's fields (timestamps, values, length fields)
//   40     4    CRC32 over bytes [0, 40) + payload
//   44     ...  payload
//
// Recovery stops at the first record that fails a check, so a torn
// write or bit flip loses only that record and what follows; a rewrite
// is tmp + fsync + rename + dir fsync. DESIGN.md §17 has the rules.
// Single-threaded by contract; another RecordLog on the same path may
// scan with repair=false while this one appends.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace gpawfd {

/// The traits of one log format.
struct RecordFormat {
  const char* name;  // "cache store": the subject of error messages
  std::uint32_t magic;
  std::uint8_t version;
  bool (*accepts_type)(std::uint8_t type);
  /// Payload size read from the format fields of an accepted header;
  /// nullopt when a length is out of the format's bounds.
  std::optional<std::size_t> (*payload_bytes)(const std::uint8_t* header);
};

class RecordLog {
 public:
  static constexpr std::size_t kHeaderBytes = 44;
  static constexpr std::size_t kCrcOffset = 40;  // CRC covers [0, 40)

  /// One valid record; the pointers live for the callback only.
  struct Record {
    const std::uint8_t* header;  // kHeaderBytes
    const std::uint8_t* payload;
    std::size_t payload_bytes;
    std::uint64_t sequence;
    std::uint8_t type;
  };

  struct ScanStats {
    std::int64_t records = 0;          // records that passed every check
    std::int64_t truncated_bytes = 0;  // torn/corrupt tail after them
  };

  /// Opens (creating if absent) the log at `path`. scan() must run
  /// before the first append or rewrite.
  RecordLog(std::string path, const RecordFormat& format);
  ~RecordLog();
  RecordLog(const RecordLog&) = delete;
  RecordLog& operator=(const RecordLog&) = delete;

  /// Chunked forward scan: `visit` runs for every valid record in log
  /// order. Establishes the writer state (end, next sequence, record
  /// count); repair=true truncates the torn tail.
  ScanStats scan(const std::function<void(const Record&)>& visit,
                 bool repair);

  /// Framing into `out`: begin_record() appends bytes [0, 16) and
  /// returns the record's start, the owner appends its 24 field bytes,
  /// end_record() appends the CRC and the payload pieces.
  std::size_t begin_record(std::vector<std::uint8_t>& out, std::uint8_t type,
                           std::uint64_t sequence) const;
  void end_record(
      std::vector<std::uint8_t>& out, std::size_t start,
      std::initializer_list<std::span<const std::uint8_t>> payload) const;

  /// One pwrite of `records` framed records, numbered from
  /// next_sequence() on, at the end of the log; returns the new end.
  /// Durable only after sync().
  std::uint64_t append(std::span<const std::uint8_t> bytes,
                       std::int64_t records);
  void sync();  // fsync the log

  /// Atomically replace the log by the records `keep` accepts, copied
  /// byte for byte; the next sequence number is kept. Returns the count.
  std::int64_t rewrite(const std::function<bool(const Record&)>& keep);

  const std::string& path() const { return path_; }
  bool recovered() const { return recovered_; }
  std::uint64_t end() const { return end_; }
  std::uint64_t next_sequence() const { return next_sequence_; }
  std::int64_t records() const { return records_; }

 private:
  struct Prefix {
    std::int64_t records = 0;
    std::uint64_t last_sequence = 0;
    std::uint64_t valid_end = 0;  // offset just past the last good record
    std::uint64_t available = 0;  // bytes the file held while scanned
  };
  Prefix read_valid_prefix(
      const std::function<void(const Record&)>& visit) const;
  void require_recovered() const;

  std::string path_;
  RecordFormat format_;
  int fd_ = -1;
  bool recovered_ = false;
  std::uint64_t end_ = 0;
  std::uint64_t next_sequence_ = 1;
  std::int64_t records_ = 0;
};

/// `file` inside `dir`: every process given the same directory agrees
/// on the log's path.
inline std::string path_in(const std::string& dir, const char* file) {
  if (dir.empty() || dir.back() == '/') return dir + file;
  return dir + "/" + file;
}

/// A string's bytes as a payload piece for end_record().
inline std::span<const std::uint8_t> byte_span(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

}  // namespace gpawfd
