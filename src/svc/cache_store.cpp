#include "svc/cache_store.hpp"

#include <optional>
#include <utility>

#include "common/check.hpp"
#include "svc/metrics.hpp"

namespace gpawfd::svc {

namespace {

bool store_type_ok(std::uint8_t type) {
  return type == static_cast<std::uint8_t>(RecordType::kPut) ||
         type == static_cast<std::uint8_t>(RecordType::kTombstone);
}

/// key + value bytes: a non-empty key within the sanity cap, and the
/// exact value size the type carries.
std::optional<std::size_t> store_payload_bytes(const std::uint8_t* header) {
  const std::uint32_t key_len = core::read_u32(header + 32);
  const std::uint32_t value_len = core::read_u32(header + 36);
  if (key_len == 0 || key_len > kStoreMaxKeyBytes) return std::nullopt;
  const std::size_t want_value =
      header[5] == static_cast<std::uint8_t>(RecordType::kPut)
          ? core::kSimResultCodecBytes
          : 0;
  if (value_len != want_value) return std::nullopt;
  return std::size_t{key_len} + value_len;
}

constexpr RecordFormat kStoreFormat{"cache store", kStoreMagic, kStoreVersion,
                                    store_type_ok, store_payload_bytes};

std::string key_of(const RecordLog::Record& r) {
  return {reinterpret_cast<const char*>(r.payload),
          core::read_u32(r.header + 32)};
}

}  // namespace

CacheStore::CacheStore(std::string path)
    : log_(std::move(path), kStoreFormat) {}

std::uint64_t CacheStore::append(RecordType type,
                                 std::span<const StorePut> records) {
  const std::uint64_t first = log_.next_sequence();
  std::vector<std::uint8_t> buf;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const StorePut& p = records[i];
    GPAWFD_CHECK_MSG(!p.key.empty() && p.key.size() <= kStoreMaxKeyBytes,
                     "cache store key size " << p.key.size()
                                             << " out of range");
    const std::size_t start =
        log_.begin_record(buf, static_cast<std::uint8_t>(type), first + i);
    core::append_double(buf, p.write_time);
    core::append_double(buf, p.cost_seconds);
    core::append_u32(buf, static_cast<std::uint32_t>(p.key.size()));
    core::append_u32(buf, static_cast<std::uint32_t>(p.value.size()));
    log_.end_record(buf, start, {byte_span(p.key), p.value});
  }
  log_.append(buf, static_cast<std::int64_t>(records.size()));
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (type == RecordType::kPut)
      live_[records[i].key] = first + i;
    else
      live_.erase(records[i].key);
  }
  return log_.end();
}

std::uint64_t CacheStore::append_put(const std::string& key,
                                     const core::SimResult& result,
                                     double cost_seconds, double write_time) {
  const StorePut put{key, core::encode_sim_result(result), cost_seconds,
                     write_time};
  return append(RecordType::kPut, {&put, 1});
}

std::uint64_t CacheStore::append_tombstone(const std::string& key,
                                           double write_time) {
  const StorePut tombstone{key, {}, 0.0, write_time};
  return append(RecordType::kTombstone, {&tombstone, 1});
}

std::uint64_t CacheStore::append_puts(const std::vector<StorePut>& puts) {
  return append(RecordType::kPut, puts);
}

std::uint64_t CacheStore::recover_stream(
    const std::function<void(RawStoreRecord&&)>& emit, RecoveryStats* stats,
    bool repair) {
  std::int64_t puts = 0, tombstones = 0;
  std::unordered_map<std::string, std::uint64_t> live;
  const RecordLog::ScanStats scan = log_.scan(
      [&](const RecordLog::Record& r) {
        RawStoreRecord rec;
        rec.key = key_of(r);
        rec.type = static_cast<RecordType>(r.type);
        if (rec.type == RecordType::kPut) {
          rec.value.assign(r.payload + rec.key.size(),
                           r.payload + r.payload_bytes);
          live[rec.key] = r.sequence;
          ++puts;
        } else {
          live.erase(rec.key);
          ++tombstones;
        }
        rec.write_time = core::read_double(r.header + 16);
        rec.cost_seconds = core::read_double(r.header + 24);
        rec.sequence = r.sequence;
        emit(std::move(rec));
      },
      repair);
  if (stats) {
    stats->records_scanned = scan.records;
    stats->puts = puts;
    stats->tombstones = tombstones;
    stats->live = static_cast<std::int64_t>(live.size());
    stats->truncated_bytes = scan.truncated_bytes;
    stats->truncated = scan.truncated_bytes != 0;
  }
  live_ = std::move(live);
  return log_.end();
}

std::vector<StoreRecord> CacheStore::recover(RecoveryStats* stats,
                                             bool repair) {
  std::vector<StoreRecord> live;
  recover_stream(
      [&](RawStoreRecord&& raw) {
        if (raw.type != RecordType::kPut) return;
        StoreRecord rec;
        rec.key = std::move(raw.key);
        rec.result =
            core::decode_sim_result(raw.value.data(), raw.value.size());
        rec.cost_seconds = raw.cost_seconds;
        rec.write_time = raw.write_time;
        rec.sequence = raw.sequence;
        live.push_back(std::move(rec));
      },
      stats, repair);
  // The scan left each key's surviving put (by sequence) in live_: later
  // puts supersede earlier ones and tombstones delete. Log order stays.
  std::erase_if(live, [&](const StoreRecord& rec) {
    const auto it = live_.find(rec.key);
    return it == live_.end() || it->second != rec.sequence;
  });
  return live;
}

double CacheStore::garbage_ratio() const {
  if (total_records() <= 0) return 0.0;
  const std::int64_t garbage = total_records() - live_records();
  return static_cast<double>(garbage) / static_cast<double>(total_records());
}

bool CacheStore::maybe_compact(double garbage_threshold,
                               std::int64_t min_records) {
  if (total_records() < min_records) return false;
  if (garbage_ratio() <= garbage_threshold) return false;
  return compact();
}

bool CacheStore::compact() {
  // The live index names each key's surviving put by sequence, so the
  // rewrite keeps exactly those records, in log order.
  log_.rewrite([&](const RecordLog::Record& r) {
    if (r.type != static_cast<std::uint8_t>(RecordType::kPut)) return false;
    const auto it = live_.find(key_of(r));
    return it != live_.end() && it->second == r.sequence;
  });
  ++compactions_;
  return true;
}

// ---- Persister ----------------------------------------------------------

namespace {

WriteBehindLedger persist_ledger(Metrics* m) {
  if (m == nullptr) return {};
  return {&m->persist_enqueued, &m->persist_written, &m->persist_dropped,
          &m->persist_flushes, &m->persist_compactions};
}

}  // namespace

Persister::Persister(std::unique_ptr<CacheStore> store,
                     PersisterConfig config, Metrics* metrics,
                     bool store_ready)
    : store_(std::move(store)),
      config_(std::move(config)),
      queue_(
          config_.queue_capacity,
          [this](std::vector<Write>& batch) {
            std::vector<CacheStore::StorePut> puts;
            puts.reserve(batch.size());
            for (Write& w : batch) {
              if (config_.on_write) config_.on_write(w.key);
              puts.push_back({std::move(w.key),
                              core::encode_sim_result(w.result),
                              w.cost_seconds, w.write_time});
            }
            store_->append_puts(puts);
          },
          [this] {
            store_->sync();
            return config_.compact_garbage_threshold > 0 &&
                   store_->maybe_compact(config_.compact_garbage_threshold,
                                         config_.compact_min_records);
          },
          persist_ledger(metrics), store_ready) {
  GPAWFD_CHECK(store_ != nullptr);
}

}  // namespace gpawfd::svc
