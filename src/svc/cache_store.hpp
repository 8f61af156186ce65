// Persistent, crash-safe result store: an append-only record log
// mapping JobKey canonical strings to bit-exact SimResults (the shared
// core/result_codec encoding — the same 96 bytes a net kResult frame
// carries, so a wire reply *is* a serialized store entry). The paper
// keeps expensive grid work off the critical path; this keeps expensive
// simulations off the critical path of the *next process*: a bench/CI
// restart warm-loads the store instead of re-simulating.
//
// The framing, torn-tail recovery and atomic rewrite are
// common/record_log's (DESIGN.md §17 has the shared rules). This file
// is the store's codec and index. Its format fields (header bytes
// 16-40) and payload:
//
//   offset size field
//   16     8    write_time  unix seconds the result was produced (f64)
//   24     8    cost        measured cold executor cost (f64)
//   32     4    key_len     1..16 KiB
//   36     4    value_len   96 for a put, 0 for a tombstone
//   44     ...  key bytes, then value bytes (the CRC'd payload)
//
// Later records supersede earlier ones for the same key, and tombstone
// records delete a key; when the superseded/tombstoned garbage exceeds
// a threshold, compaction rewrites the live set (original sequences and
// timestamps preserved).
//
// CacheStore itself is single-threaded by contract. The write-behind
// Persister below is the concurrency story: SimService::complete()
// enqueues into its bounded queue (drop-oldest backpressure — losing a
// cache entry costs one future re-simulation, blocking a worker costs
// latency now) and a dedicated thread drains it to the log, fsyncing at
// every drain and compacting when garbage accumulates.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/record_log.hpp"
#include "common/write_behind.hpp"
#include "core/result_codec.hpp"

namespace gpawfd::svc {

class Metrics;

inline constexpr std::uint32_t kStoreMagic = 0x53435047;  // "GPCS" on disk
inline constexpr std::uint8_t kStoreVersion = 1;
/// Header incl. the trailing CRC, excl. key/value bytes.
inline constexpr std::size_t kStoreHeaderBytes = RecordLog::kHeaderBytes;
/// Sanity bounds recovery enforces before trusting a length field; a
/// flipped bit in key_len must never make the scanner swallow the rest
/// of the log as one "record".
inline constexpr std::size_t kStoreMaxKeyBytes = 16 * 1024;

enum class RecordType : std::uint8_t {
  kPut = 1,        // value = encode_sim_result (kSimResultCodecBytes)
  kTombstone = 2,  // value empty; deletes the key
};

/// One recovered (or to-be-written) log record.
struct StoreRecord {
  std::string key;  // JobKey canonical string, opaque to the store
  core::SimResult result{};
  double cost_seconds = 0;  // measured cold cost (weights eviction)
  double write_time = 0;    // trace::unix_seconds() at production time
  std::uint64_t sequence = 0;
  RecordType type = RecordType::kPut;
};

/// A validated-but-undecoded record as recover_stream() emits it: the
/// value stays raw bytes so the consumer side of the startup double
/// buffer (decode + cache insert) overlaps the producer side (read +
/// CRC). Records arrive in log order, including superseded ones — the
/// consumer applies newest-wins (ResultCache::insert_warm/erase_warm).
struct RawStoreRecord {
  std::string key;
  std::vector<std::uint8_t> value;  // kSimResultCodecBytes for a put; empty
                                    // for a tombstone
  double cost_seconds = 0;
  double write_time = 0;
  std::uint64_t sequence = 0;
  RecordType type = RecordType::kPut;
};

struct RecoveryStats {
  std::int64_t records_scanned = 0;  // records that passed every check
  std::int64_t puts = 0;
  std::int64_t tombstones = 0;
  std::int64_t live = 0;             // puts surviving supersede/tombstone
  std::int64_t truncated_bytes = 0;  // torn/corrupt tail dropped
  bool truncated = false;
};

class CacheStore {
 public:
  /// The store file a directory-configured service uses, so two
  /// processes given the same --cache-dir agree on the path.
  static constexpr const char* kFileName = "results.gpcs";
  static std::string path_in(const std::string& dir) {
    return gpawfd::path_in(dir, kFileName);
  }

  /// Opens (creating if absent) the log at `path`. recover() must run
  /// before the first append — it establishes the valid end of the log
  /// and the next sequence number.
  explicit CacheStore(std::string path);

  /// Scan the log from the start, stop at the first torn/corrupt
  /// record, and return the live set (sequence order). With repair=true
  /// (the writer's mode) the file is truncated to the valid prefix;
  /// repair=false is a read-only scan, safe on a file another process
  /// is appending to.
  std::vector<StoreRecord> recover(RecoveryStats* stats = nullptr,
                                   bool repair = true);

  /// Streaming flavour of recover(): reads the log in bounded chunks and
  /// invokes `emit` for every valid record *in log order* (no
  /// supersede/tombstone collapse — that is the consumer's job), with
  /// exactly the same validity checks and stop-at-first-bad-record
  /// contract. Establishes the writer state (live index, next sequence,
  /// end offset) and, with repair=true, truncates the torn tail — so
  /// appends may follow. Returns the offset just past the last valid
  /// record. recover() is implemented on top of this, so the recovery
  /// torture tests exercise this parser.
  std::uint64_t recover_stream(
      const std::function<void(RawStoreRecord&&)>& emit,
      RecoveryStats* stats = nullptr, bool repair = true);

  /// Append one record; returns the file offset just past it (a record
  /// boundary — the torture tests truncate at these and everywhere
  /// else). Durable only after sync().
  std::uint64_t append_put(const std::string& key,
                           const core::SimResult& result,
                           double cost_seconds, double write_time);
  std::uint64_t append_tombstone(const std::string& key, double write_time);

  /// One pre-encoded put for append_puts (value = encode_sim_result
  /// bytes).
  struct StorePut {
    std::string key;
    std::vector<std::uint8_t> value;
    double cost_seconds = 0;
    double write_time = 0;
  };
  /// Append every put as ONE contiguous write(2) — the write-behind
  /// drain's coalescing half (Persister::enqueue_batch's single notify
  /// is the other). Byte-identical on disk to calling append_put in a
  /// loop. Returns the offset just past the last record.
  std::uint64_t append_puts(const std::vector<StorePut>& puts);

  void sync() { log_.sync(); }  // fsync the log

  // ---- compaction -----------------------------------------------------
  /// superseded + tombstoned records / total records (0 when empty).
  double garbage_ratio() const;
  /// Rewrite the live set when garbage_ratio() exceeds the threshold and
  /// the log holds at least `min_records`. Returns true if it compacted.
  bool maybe_compact(double garbage_threshold = 0.5,
                     std::int64_t min_records = 64);
  /// Unconditional rewrite: live records -> temp file -> fsync ->
  /// atomic rename over the log -> fsync the directory.
  bool compact();

  // ---- statistics -----------------------------------------------------
  const std::string& path() const { return log_.path(); }
  /// True when `key` has a live (non-tombstoned, non-superseded) put.
  bool contains(const std::string& key) const { return live_.count(key) > 0; }
  std::int64_t total_records() const { return log_.records(); }
  std::int64_t live_records() const {
    return static_cast<std::int64_t>(live_.size());
  }
  std::uint64_t next_sequence() const { return log_.next_sequence(); }
  std::uint64_t size_bytes() const { return log_.end(); }
  std::int64_t compactions() const { return compactions_; }

 private:
  /// Frame and append `records` of one type as one write; a tombstone
  /// is a StorePut with an empty value.
  std::uint64_t append(RecordType type, std::span<const StorePut> records);

  RecordLog log_;
  /// key -> sequence of its live put (absent = deleted/never written).
  std::unordered_map<std::string, std::uint64_t> live_;
  std::int64_t compactions_ = 0;
};

// ---- write-behind persister --------------------------------------------

struct PersisterConfig {
  /// Bounded queue between complete() and the log. When full the
  /// *oldest* pending entry is dropped (counted), never the newest —
  /// recency is what the next warm start wants — and never the caller's
  /// time: enqueue() does no I/O.
  std::size_t queue_capacity = 256;
  /// Compact after a flush when garbage exceeds this fraction (<= 0
  /// disables) and the log has at least compact_min_records records.
  double compact_garbage_threshold = 0.5;
  std::int64_t compact_min_records = 64;
  /// Test hook: runs on the persister thread just before each append
  /// (e.g. to gate writes and force the drop-oldest path determinately).
  std::function<void(const std::string& key)> on_write;
};

/// Owns a CacheStore plus the WriteBehind thread that drains completed
/// results into it, off the worker hot path. When given a Metrics, its
/// persist_* counters are the ledger itself, so counter_map() reconciles
/// at quiescence: enqueued == written + dropped.
class Persister {
 public:
  /// One pending write-behind entry (the enqueue_batch unit).
  struct Write {
    std::string key;
    core::SimResult result;
    double cost_seconds = 0;
    double write_time = 0;
  };

  /// `store` must already be recovered — unless store_ready=false, in
  /// which case the owner recovers it concurrently (the overlapped warm
  /// load) and calls mark_ready(); until then the thread parks and
  /// enqueued entries wait in the bounded queue.
  Persister(std::unique_ptr<CacheStore> store, PersisterConfig config = {},
            Metrics* metrics = nullptr, bool store_ready = true);
  ~Persister() = default;  // the queue's destructor shuts it down first
  Persister(const Persister&) = delete;
  Persister& operator=(const Persister&) = delete;

  /// WriteBehind::push: never blocks on I/O, drops the oldest pending
  /// entry when full, counts a no-op after shutdown() as dropped.
  void enqueue(std::string key, const core::SimResult& result,
               double cost_seconds, double write_time) {
    queue_.push(Write{std::move(key), result, cost_seconds, write_time});
  }

  /// One lock and one wake for a whole service batch.
  void enqueue_batch(std::vector<Write> writes) {
    queue_.push_batch(std::move(writes));
  }

  /// Store recovery (running on another thread) finished.
  void mark_ready() { queue_.mark_ready(); }
  void flush() { queue_.flush(); }        // all enqueued written + fsynced
  void shutdown() { queue_.shutdown(); }  // drain, fsync, stop; idempotent

  const CacheStore& store() const { return *store_; }

  std::int64_t enqueued() const { return queue_.enqueued(); }
  std::int64_t written() const { return queue_.written(); }
  std::int64_t dropped() const { return queue_.dropped(); }
  std::int64_t flushes() const { return queue_.flushes(); }
  std::int64_t compactions() const { return queue_.compactions(); }

 private:
  std::unique_ptr<CacheStore> store_;
  PersisterConfig config_;
  WriteBehind<Write> queue_;  // last: its thread uses the rest
};

}  // namespace gpawfd::svc
