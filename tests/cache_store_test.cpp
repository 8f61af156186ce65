// Torture tests for the persistent result store (svc/cache_store):
// crash-safe recovery truncated at every byte offset of a multi-record
// log, random bit flips caught by the CRC without losing earlier
// records, a committed golden binary fixture pinning the on-disk format
// bit-for-bit (a format change MUST bump kStoreVersion and regenerate
// the fixture — see tests/data/README note below), compaction, the
// concurrent writer + read-only-reader reopen dance, and the
// write-behind Persister's drop-oldest backpressure made deterministic
// with a gated write hook.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/hash.hpp"
#include "core/result_codec.hpp"
#include "svc/cache_store.hpp"
#include "svc/metrics.hpp"

namespace gpawfd {
namespace {

// ---- fixtures and helpers ---------------------------------------------

/// A unique scratch directory per test, removed on destruction.
class TempDir {
 public:
  TempDir() {
    std::string tmpl = ::testing::TempDir() + "gpawfd_cache_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    const char* made = ::mkdtemp(buf.data());
    GPAWFD_CHECK(made != nullptr);
    path_ = made;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  std::string store_path() const {
    return svc::CacheStore::path_in(path_);
  }
  const std::string& dir() const { return path_; }

 private:
  std::string path_;
};

core::SimResult make_result(double tag) {
  core::SimResult r;
  r.seconds = tag;
  r.compute_core_seconds = 2 * tag;
  r.utilization = 0.5;
  r.bytes_sent_total = static_cast<std::int64_t>(1000 * tag);
  r.bytes_sent_per_node = tag / 4;
  r.messages_total = static_cast<std::int64_t>(10 * tag);
  r.phases.compute = tag + 0.125;
  r.phases.copy = tag + 0.25;
  r.phases.mpi_overhead = tag + 0.375;
  r.phases.wait = tag + 0.5;
  r.phases.barrier = tag + 0.625;
  r.phases.spawn = tag + 0.75;
  return r;
}

void expect_result_eq(const core::SimResult& a, const core::SimResult& b) {
  // Bit-exact across the codec: plain == on every field.
  const auto ea = core::encode_sim_result(a);
  const auto eb = core::encode_sim_result(b);
  EXPECT_EQ(ea, eb);
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in), {});
}

void write_file(const std::string& path,
                const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

void append_to_file(const std::string& path,
                    const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Hand-rolled record encoder (independent of CacheStore's private one)
/// for crafting byte-valid records with hostile field values — a future
/// format version, a non-monotonic sequence — that the store's own
/// appenders would refuse to produce. CRC is correct by construction, so
/// recovery must reject these on the *semantic* check, not the checksum.
std::vector<std::uint8_t> craft_record(std::uint8_t version,
                                       std::uint8_t type, std::uint64_t seq,
                                       double write_time, double cost,
                                       const std::string& key,
                                       const std::vector<std::uint8_t>& value) {
  std::vector<std::uint8_t> out;
  core::append_u32(out, svc::kStoreMagic);
  out.push_back(version);
  out.push_back(type);
  out.push_back(0);
  out.push_back(0);
  core::append_u64(out, seq);
  core::append_double(out, write_time);
  core::append_double(out, cost);
  core::append_u32(out, static_cast<std::uint32_t>(key.size()));
  core::append_u32(out, static_cast<std::uint32_t>(value.size()));
  std::uint32_t crc = crc32(out.data(), out.size());
  crc = crc32(key.data(), key.size(), crc);
  crc = crc32(value.data(), value.size(), crc);
  core::append_u32(out, crc);
  out.insert(out.end(), key.begin(), key.end());
  out.insert(out.end(), value.begin(), value.end());
  return out;
}

/// Writes a 4-record log (3 puts + 1 supersede... see body) and returns
/// the record-boundary offsets appends reported.
std::vector<std::uint64_t> write_sample_log(const std::string& path) {
  svc::CacheStore store(path);
  store.recover();
  std::vector<std::uint64_t> ends;
  ends.push_back(store.append_put("v1|key-a", make_result(1.0), 0.1, 100.0));
  ends.push_back(store.append_put("v1|key-b", make_result(2.0), 0.2, 101.0));
  ends.push_back(store.append_put("v1|key-a", make_result(3.0), 0.3, 102.0));
  ends.push_back(store.append_tombstone("v1|key-b", 103.0));
  store.sync();
  return ends;
}

/// Asserts the live set of the sample log's first `n` records, exactly.
/// The live set is ordered by the sequence of each key's *surviving*
/// put, so key-a's supersede at seq 3 moves it after key-b.
void expect_prefix_live(const std::vector<svc::StoreRecord>& live,
                        std::int64_t n) {
  switch (n) {
    case 0:
      EXPECT_TRUE(live.empty());
      break;
    case 1:
      ASSERT_EQ(live.size(), 1u);
      EXPECT_EQ(live[0].key, "v1|key-a");
      expect_result_eq(live[0].result, make_result(1.0));
      break;
    case 2:
      ASSERT_EQ(live.size(), 2u);
      EXPECT_EQ(live[0].key, "v1|key-a");
      expect_result_eq(live[0].result, make_result(1.0));
      EXPECT_EQ(live[1].key, "v1|key-b");
      expect_result_eq(live[1].result, make_result(2.0));
      break;
    case 3:
      ASSERT_EQ(live.size(), 2u);
      EXPECT_EQ(live[0].key, "v1|key-b");
      expect_result_eq(live[0].result, make_result(2.0));
      EXPECT_EQ(live[1].key, "v1|key-a");
      expect_result_eq(live[1].result, make_result(3.0));
      break;
    case 4:
      ASSERT_EQ(live.size(), 1u);
      EXPECT_EQ(live[0].key, "v1|key-a");
      expect_result_eq(live[0].result, make_result(3.0));
      break;
    default:
      FAIL() << "unexpected prefix record count " << n;
  }
}

// ---- basic round trip ---------------------------------------------------

TEST(CacheStore, RoundTripAppliesSupersedesAndTombstones) {
  TempDir tmp;
  write_sample_log(tmp.store_path());

  svc::CacheStore reopened(tmp.store_path());
  svc::RecoveryStats stats;
  const auto live = reopened.recover(&stats);
  EXPECT_EQ(stats.records_scanned, 4);
  EXPECT_EQ(stats.puts, 3);
  EXPECT_EQ(stats.tombstones, 1);
  EXPECT_EQ(stats.live, 1);
  EXPECT_FALSE(stats.truncated);

  // key-b was tombstoned; key-a's second put superseded the first.
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].key, "v1|key-a");
  EXPECT_EQ(live[0].sequence, 3u);
  EXPECT_EQ(live[0].cost_seconds, 0.3);
  EXPECT_EQ(live[0].write_time, 102.0);
  expect_result_eq(live[0].result, make_result(3.0));

  EXPECT_TRUE(reopened.contains("v1|key-a"));
  EXPECT_FALSE(reopened.contains("v1|key-b"));
  EXPECT_EQ(reopened.total_records(), 4);
  EXPECT_EQ(reopened.live_records(), 1);
  EXPECT_EQ(reopened.next_sequence(), 5u);
}

TEST(CacheStore, AppendsContinueAfterReopen) {
  TempDir tmp;
  write_sample_log(tmp.store_path());

  {
    svc::CacheStore store(tmp.store_path());
    store.recover();
    store.append_put("v1|key-c", make_result(4.0), 0.4, 104.0);
    store.sync();
  }
  svc::CacheStore again(tmp.store_path());
  const auto live = again.recover();
  ASSERT_EQ(live.size(), 2u);
  EXPECT_EQ(live[0].key, "v1|key-a");
  EXPECT_EQ(live[1].key, "v1|key-c");
  EXPECT_EQ(live[1].sequence, 5u);  // sequences keep climbing across opens
}

TEST(CacheStore, AppendBeforeRecoverIsRefused) {
  TempDir tmp;
  svc::CacheStore store(tmp.store_path());
  EXPECT_THROW(store.append_put("v1|k", make_result(1.0), 0, 0), Error);
}

// ---- the every-byte-offset truncation torture ---------------------------

// Crash-safety acceptance test: for EVERY prefix length of a
// multi-record log — every possible torn-write crash point — reopening
// must neither crash nor accept a corrupt record, and must recover
// exactly the records whose bytes fully survived.
TEST(CacheStoreTorture, TruncationAtEveryByteOffsetRecoversThePrefix) {
  TempDir tmp;
  const std::string sample = tmp.dir() + "/sample.gpcs";
  const std::vector<std::uint64_t> ends = write_sample_log(sample);
  const std::vector<std::uint8_t> full = read_file(sample);
  ASSERT_EQ(full.size(), ends.back());

  const std::string victim = tmp.dir() + "/victim.gpcs";
  for (std::size_t len = 0; len <= full.size(); ++len) {
    write_file(victim, std::vector<std::uint8_t>(full.begin(),
                                                 full.begin() +
                                                     static_cast<long>(len)));
    // How many records fit entirely inside the prefix, and where the
    // last intact one ends.
    std::int64_t expect_records = 0;
    std::uint64_t valid_end = 0;
    for (const std::uint64_t end : ends) {
      if (end <= len) {
        ++expect_records;
        valid_end = end;
      }
    }

    svc::CacheStore store(victim);
    svc::RecoveryStats stats;
    const auto live = store.recover(&stats);
    ASSERT_EQ(stats.records_scanned, expect_records) << "prefix " << len;
    ASSERT_EQ(stats.truncated_bytes,
              static_cast<std::int64_t>(len - valid_end))
        << "prefix " << len;
    ASSERT_EQ(stats.truncated, len != valid_end) << "prefix " << len;
    // repair=true physically truncated the file to the record boundary.
    ASSERT_EQ(std::filesystem::file_size(victim), valid_end)
        << "prefix " << len;

    // The undamaged prefix is fully recovered, with its exact contents.
    expect_prefix_live(live, expect_records);

    // A second recovery of the repaired file is clean and identical.
    svc::CacheStore again(victim);
    svc::RecoveryStats stats2;
    const auto live2 = again.recover(&stats2);
    ASSERT_FALSE(stats2.truncated) << "prefix " << len;
    ASSERT_EQ(live2.size(), live.size()) << "prefix " << len;
  }
}

// ---- random bit flips ---------------------------------------------------

// Any single flipped bit invalidates exactly the record it lands in: the
// CRC rejects that record (and, because nothing past a bad record can be
// trusted, the scan stops there) while every earlier record survives
// with its exact contents. Seeds are fixed: failures replay.
TEST(CacheStoreTorture, RandomBitFlipsNeverLoseEarlierRecords) {
  TempDir tmp;
  const std::string sample = tmp.dir() + "/sample.gpcs";
  const std::vector<std::uint64_t> ends = write_sample_log(sample);
  const std::vector<std::uint8_t> full = read_file(sample);

  const std::string victim = tmp.dir() + "/victim.gpcs";
  for (std::uint32_t seed = 1; seed <= 64; ++seed) {
    std::mt19937 rng(seed);
    const std::size_t pos = std::uniform_int_distribution<std::size_t>(
        0, full.size() - 1)(rng);
    const int bit = std::uniform_int_distribution<int>(0, 7)(rng);

    std::vector<std::uint8_t> damaged = full;
    damaged[pos] ^= static_cast<std::uint8_t>(1u << bit);
    write_file(victim, damaged);

    // The flip lands inside exactly one record; everything before it
    // must survive, nothing from it on may be accepted.
    std::int64_t damaged_record = 0;
    while (pos >= ends[static_cast<std::size_t>(damaged_record)])
      ++damaged_record;

    svc::CacheStore store(victim);
    svc::RecoveryStats stats;
    const auto live = store.recover(&stats);
    ASSERT_EQ(stats.records_scanned, damaged_record)
        << "seed " << seed << " pos " << pos << " bit " << bit;
    expect_prefix_live(live, damaged_record);
  }
}

// ---- hostile-but-checksummed records ------------------------------------

TEST(CacheStore, FutureFormatVersionIsRejectedNotMisread) {
  TempDir tmp;
  write_sample_log(tmp.store_path());
  // A record from "version 2" with a perfectly valid CRC: the scanner
  // must stop at the version check rather than guess at its layout.
  const auto alien = craft_record(
      svc::kStoreVersion + 1, 1, /*seq=*/5, 200.0, 0.5, "v1|key-z",
      core::encode_sim_result(make_result(9.0)));
  append_to_file(tmp.store_path(), alien);

  svc::CacheStore store(tmp.store_path());
  svc::RecoveryStats stats;
  store.recover(&stats);
  EXPECT_EQ(stats.records_scanned, 4);
  EXPECT_TRUE(stats.truncated);
  EXPECT_FALSE(store.contains("v1|key-z"));
}

TEST(CacheStore, NonMonotonicSequenceIsRejected) {
  TempDir tmp;
  write_sample_log(tmp.store_path());  // sequences 1..4
  const auto replayed = craft_record(
      svc::kStoreVersion, 1, /*seq=*/2, 200.0, 0.5, "v1|key-z",
      core::encode_sim_result(make_result(9.0)));
  append_to_file(tmp.store_path(), replayed);

  svc::CacheStore store(tmp.store_path());
  svc::RecoveryStats stats;
  store.recover(&stats);
  EXPECT_EQ(stats.records_scanned, 4);
  EXPECT_TRUE(stats.truncated);
  EXPECT_FALSE(store.contains("v1|key-z"));
}

TEST(CacheStore, OversizedKeyLengthIsRejected) {
  TempDir tmp;
  write_sample_log(tmp.store_path());
  // key_len past the sanity cap, CRC valid: the scanner must refuse to
  // allocate/swallow rather than trust the length.
  std::string huge_key(svc::kStoreMaxKeyBytes + 1, 'x');
  const auto hostile = craft_record(
      svc::kStoreVersion, 2, /*seq=*/5, 200.0, 0.0, huge_key, {});
  append_to_file(tmp.store_path(), hostile);

  svc::CacheStore store(tmp.store_path());
  svc::RecoveryStats stats;
  store.recover(&stats);
  EXPECT_EQ(stats.records_scanned, 4);
  EXPECT_TRUE(stats.truncated);
}

// ---- golden file: the on-disk format, pinned ---------------------------

// tests/data/cache_store_v1.gpcs is a committed binary fixture produced
// by this exact record schedule. If either golden test fails, the
// on-disk format changed: bump svc::kStoreVersion and regenerate the
// fixture (write_golden_records into a fresh store and commit the file),
// so that stores written by older builds are cleanly rejected instead of
// silently misread.
constexpr const char* kGoldenPath =
    GPAWFD_TEST_DATA_DIR "/cache_store_v1.gpcs";

void write_golden_records(svc::CacheStore& store) {
  store.append_put("v1|golden-a", make_result(1.5), 0.125, 1700000000.5);
  store.append_put("v1|golden-b", make_result(2.25), 0.0625, 1700000001.5);
  store.append_put("v1|golden-a", make_result(7.75), 0.25, 1700000002.5);
  store.append_tombstone("v1|golden-b", 1700000003.5);
  store.sync();
}

TEST(CacheStoreGolden, FixtureDecodesBitExactly) {
  svc::CacheStore store(kGoldenPath);
  svc::RecoveryStats stats;
  // repair=false: a golden fixture must never be modified by the test.
  const auto live = store.recover(&stats, /*repair=*/false);
  EXPECT_EQ(stats.records_scanned, 4);
  EXPECT_EQ(stats.puts, 3);
  EXPECT_EQ(stats.tombstones, 1);
  EXPECT_FALSE(stats.truncated);
  ASSERT_EQ(live.size(), 1u);
  EXPECT_EQ(live[0].key, "v1|golden-a");
  EXPECT_EQ(live[0].sequence, 3u);
  EXPECT_EQ(live[0].write_time, 1700000002.5);
  EXPECT_EQ(live[0].cost_seconds, 0.25);
  expect_result_eq(live[0].result, make_result(7.75));
}

TEST(CacheStoreGolden, EncoderReproducesTheFixtureByteForByte) {
  TempDir tmp;
  {
    svc::CacheStore store(tmp.store_path());
    store.recover();
    write_golden_records(store);
  }
  const auto ours = read_file(tmp.store_path());
  const auto golden = read_file(kGoldenPath);
  ASSERT_FALSE(golden.empty()) << "missing fixture " << kGoldenPath;
  ASSERT_EQ(ours.size(), golden.size());
  EXPECT_TRUE(ours == golden)
      << "on-disk format drifted from the committed fixture — bump "
         "svc::kStoreVersion and regenerate tests/data/cache_store_v1.gpcs";
}

// ---- compaction ---------------------------------------------------------

TEST(CacheStore, CompactionRewritesTheLiveSetAndShrinksTheLog) {
  TempDir tmp;
  svc::CacheStore store(tmp.store_path());
  store.recover();
  // 3 keys, 8 generations each + one tombstone: 25 records, 2 live.
  for (int gen = 0; gen < 8; ++gen)
    for (int k = 0; k < 3; ++k)
      store.append_put("v1|key-" + std::to_string(k),
                       make_result(10.0 * k + gen), 0.1, 100.0 + gen);
  store.append_tombstone("v1|key-0", 200.0);
  store.sync();
  const std::uint64_t before = store.size_bytes();
  const std::uint64_t seq_before = store.next_sequence();
  EXPECT_GT(store.garbage_ratio(), 0.9);

  EXPECT_FALSE(store.maybe_compact(0.95, 4));  // below threshold: no-op
  ASSERT_TRUE(store.maybe_compact(0.5, 4));
  EXPECT_LT(store.size_bytes(), before / 5);
  EXPECT_EQ(store.total_records(), 2);
  EXPECT_EQ(store.live_records(), 2);
  EXPECT_EQ(store.next_sequence(), seq_before);  // sequences never reused
  EXPECT_EQ(store.compactions(), 1);

  // Appends continue cleanly and a fresh process sees the compacted +
  // appended state with original timestamps/sequences preserved.
  store.append_put("v1|key-9", make_result(99.0), 0.9, 300.0);
  store.sync();
  svc::CacheStore reopened(tmp.store_path());
  svc::RecoveryStats stats;
  const auto live = reopened.recover(&stats);
  EXPECT_FALSE(stats.truncated);
  ASSERT_EQ(live.size(), 3u);
  EXPECT_EQ(live[0].key, "v1|key-1");
  expect_result_eq(live[0].result, make_result(17.0));  // k=1, gen=7
  EXPECT_EQ(live[0].write_time, 107.0);
  EXPECT_EQ(live[2].key, "v1|key-9");
  EXPECT_EQ(live[2].sequence, seq_before);
}

// ---- concurrent writer + read-only reader -------------------------------

// One thread appends; the main thread repeatedly reopens the file with
// repair=false scans (the second-process-peeks-at-a-live-store case).
// Readers may observe a torn tail mid-append — that must parse as a
// clean prefix, never as an error, and the observed record count can
// only grow. Run under TSAN in the tier-1 tsan lane.
TEST(CacheStoreTorture, ConcurrentWriterAndReaderReopen) {
  TempDir tmp;
  constexpr int kRecords = 200;
  {
    svc::CacheStore writer(tmp.store_path());
    writer.recover();

    std::thread producer([&writer] {
      for (int i = 0; i < kRecords; ++i) {
        writer.append_put("v1|key-" + std::to_string(i),
                          make_result(static_cast<double>(i)), 0.01,
                          1000.0 + i);
        if (i % 16 == 0) writer.sync();
      }
      writer.sync();
    });

    std::int64_t last_seen = 0;
    while (last_seen < kRecords) {
      svc::CacheStore reader(tmp.store_path());
      svc::RecoveryStats stats;
      const auto live = reader.recover(&stats, /*repair=*/false);
      ASSERT_GE(stats.records_scanned, last_seen);
      ASSERT_LE(stats.records_scanned, kRecords);
      ASSERT_EQ(static_cast<std::int64_t>(live.size()),
                stats.records_scanned);  // distinct keys: all puts live
      last_seen = stats.records_scanned;
    }
    producer.join();
  }
  svc::CacheStore final_reader(tmp.store_path());
  svc::RecoveryStats stats;
  final_reader.recover(&stats);
  EXPECT_EQ(stats.records_scanned, kRecords);
  EXPECT_FALSE(stats.truncated);
}

// ---- the write-behind persister -----------------------------------------

TEST(Persister, WritesBehindFlushesAndReconciles) {
  TempDir tmp;
  auto store = std::make_unique<svc::CacheStore>(tmp.store_path());
  store->recover();

  svc::Metrics metrics;
  svc::Persister persister(std::move(store), {}, &metrics);
  constexpr int kItems = 32;
  for (int i = 0; i < kItems; ++i)
    persister.enqueue("v1|key-" + std::to_string(i),
                      make_result(static_cast<double>(i)), 0.05, 500.0 + i);
  persister.flush();

  EXPECT_EQ(persister.enqueued(), kItems);
  EXPECT_EQ(persister.written(), kItems);
  EXPECT_EQ(persister.dropped(), 0);
  EXPECT_GE(persister.flushes(), 1);
  // The identity the Metrics mirror must satisfy at quiescence, via the
  // exported counter map (what operators actually read).
  const auto counters = metrics.counter_map();
  EXPECT_EQ(counters.at("svc.persist_enqueued"),
            counters.at("svc.persist_written") +
                counters.at("svc.persist_dropped"));
  EXPECT_EQ(counters.at("svc.persist_written"), kItems);
  EXPECT_GE(counters.at("svc.persist_flushes"), 1);

  persister.shutdown();
  // Everything is durable: a second process recovers all of it.
  svc::CacheStore reopened(tmp.store_path());
  svc::RecoveryStats stats;
  const auto live = reopened.recover(&stats);
  EXPECT_EQ(static_cast<int>(live.size()), kItems);
  EXPECT_FALSE(stats.truncated);
}

TEST(Persister, DropOldestBackpressureIsCountedAndDeterministic) {
  TempDir tmp;
  auto store = std::make_unique<svc::CacheStore>(tmp.store_path());
  store->recover();

  // Gate the very first write so the queue (capacity 2) fills behind it
  // deterministically: enqueue 1 (thread takes it and blocks in the
  // hook), then 2, 3, 4 -> the queue holds [2,3], 4 bumps 2 out.
  std::mutex mu;
  std::condition_variable cv;
  bool first_entered = false, release = false;
  svc::PersisterConfig cfg;
  cfg.queue_capacity = 2;
  cfg.on_write = [&](const std::string&) {
    std::unique_lock lk(mu);
    if (!first_entered) {
      first_entered = true;
      cv.notify_all();
      cv.wait(lk, [&] { return release; });
    }
  };

  svc::Metrics metrics;
  svc::Persister persister(std::move(store), cfg, &metrics);
  persister.enqueue("v1|key-1", make_result(1.0), 0.1, 100.0);
  {
    std::unique_lock lk(mu);
    cv.wait(lk, [&] { return first_entered; });
  }
  persister.enqueue("v1|key-2", make_result(2.0), 0.1, 100.0);
  persister.enqueue("v1|key-3", make_result(3.0), 0.1, 100.0);
  persister.enqueue("v1|key-4", make_result(4.0), 0.1, 100.0);
  {
    std::lock_guard lk(mu);
    release = true;
  }
  cv.notify_all();
  persister.flush();

  EXPECT_EQ(persister.enqueued(), 4);
  EXPECT_EQ(persister.written(), 3);
  EXPECT_EQ(persister.dropped(), 1);
  EXPECT_TRUE(persister.store().contains("v1|key-1"));
  EXPECT_FALSE(persister.store().contains("v1|key-2"));  // the dropped one
  EXPECT_TRUE(persister.store().contains("v1|key-3"));
  EXPECT_TRUE(persister.store().contains("v1|key-4"));
  EXPECT_EQ(metrics.persist_dropped.load(), 1);
}

TEST(Persister, CompactionRacesConcurrentBatchProducers) {
  // Aggressive compaction thresholds so the persister thread compacts
  // *while* producer threads are still landing enqueue_batch rounds —
  // the compact-vs-append interleaving this test (and the TSAN lane)
  // exists to race. Producers own disjoint key subsets and supersede
  // their own keys every round, so the expected final live set is exact
  // regardless of interleaving: the last round per key.
  TempDir tmp;
  auto store = std::make_unique<svc::CacheStore>(tmp.store_path());
  store->recover();

  constexpr int kProducers = 4;
  constexpr int kKeysPerProducer = 8;
  constexpr int kRounds = 20;
  constexpr int kTotal = kProducers * kKeysPerProducer * kRounds;

  svc::PersisterConfig config;
  // Capacity covers everything in flight: no drop-oldest, so the final
  // round of every key is guaranteed durable and the live set is exact.
  config.queue_capacity = kTotal;
  config.compact_garbage_threshold = 0.05;
  config.compact_min_records = 8;
  // Slow each append slightly so drains (and the compactions after
  // them) genuinely overlap the producers instead of running after.
  config.on_write = [](const std::string&) {
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  };

  svc::Metrics metrics;
  svc::Persister persister(std::move(store), config, &metrics);

  const auto key_of = [](int producer, int k) {
    return "v1|p" + std::to_string(producer) + "-k" + std::to_string(k);
  };
  const auto tag_of = [](int producer, int k, int round) {
    return 1000.0 * producer + 10.0 * k + round;
  };

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int round = 0; round < kRounds; ++round) {
        std::vector<svc::Persister::Write> batch;
        for (int k = 0; k < kKeysPerProducer; ++k)
          batch.push_back({key_of(p, k), make_result(tag_of(p, k, round)),
                           0.05, 600.0 + round});
        persister.enqueue_batch(std::move(batch));
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }
  for (auto& t : producers) t.join();
  persister.flush();

  // Nothing dropped (capacity covered the run), everything written, and
  // the mirrored counters reconcile.
  EXPECT_EQ(persister.enqueued(), kTotal);
  EXPECT_EQ(persister.written(), kTotal);
  EXPECT_EQ(persister.dropped(), 0);
  EXPECT_GE(persister.compactions(), 1);
  const auto counters = metrics.counter_map();
  EXPECT_EQ(counters.at("svc.persist_enqueued"),
            counters.at("svc.persist_written") +
                counters.at("svc.persist_dropped"));
  EXPECT_GE(counters.at("svc.persist_compactions"), 1);
  // Compaction kept only the live set on disk, so the log is far
  // smaller than the kTotal appended records.
  EXPECT_LT(persister.store().total_records(), kTotal);
  persister.shutdown();

  // A second process recovers exactly the last round of every key —
  // compaction under fire lost nothing and resurrected nothing.
  svc::CacheStore reopened(tmp.store_path());
  svc::RecoveryStats stats;
  const auto live = reopened.recover(&stats);
  EXPECT_FALSE(stats.truncated);
  ASSERT_EQ(static_cast<int>(live.size()), kProducers * kKeysPerProducer);
  for (const auto& rec : live) {
    int p = 0, k = 0;
    ASSERT_EQ(std::sscanf(rec.key.c_str(), "v1|p%d-k%d", &p, &k), 2)
        << rec.key;
    expect_result_eq(rec.result, make_result(tag_of(p, k, kRounds - 1)));
  }
}

TEST(Persister, EnqueueAfterShutdownCountsAsDropped) {
  TempDir tmp;
  auto store = std::make_unique<svc::CacheStore>(tmp.store_path());
  store->recover();
  svc::Persister persister(std::move(store), {}, nullptr);
  persister.enqueue("v1|key-1", make_result(1.0), 0.1, 100.0);
  persister.shutdown();
  persister.enqueue("v1|key-2", make_result(2.0), 0.1, 100.0);
  EXPECT_EQ(persister.enqueued(), 2);
  EXPECT_EQ(persister.written(), 1);
  EXPECT_EQ(persister.dropped(), 1);  // identity holds even past shutdown
}

// The overlapped warm load parks the persister until recovery finishes.
// A shutdown that comes first must not touch a store nobody recovered:
// every queued entry is dropped, and the ledger still reconciles.
TEST(Persister, ShutdownBeforeReadyDropsEverythingAndLeavesTheLogUntouched) {
  TempDir tmp;
  write_sample_log(tmp.store_path());
  const auto before = read_file(tmp.store_path());
  ASSERT_FALSE(before.empty());

  svc::Metrics metrics;
  svc::Persister persister(
      std::make_unique<svc::CacheStore>(tmp.store_path()), {}, &metrics,
      /*store_ready=*/false);
  for (int i = 0; i < 3; ++i)
    persister.enqueue("v1|parked-" + std::to_string(i),
                      make_result(static_cast<double>(i)), 0.1, 100.0);
  std::vector<svc::Persister::Write> batch;
  for (int i = 3; i < 5; ++i)
    batch.push_back({"v1|parked-" + std::to_string(i),
                     make_result(static_cast<double>(i)), 0.1, 100.0});
  persister.enqueue_batch(std::move(batch));
  persister.shutdown();

  EXPECT_EQ(persister.enqueued(), 5);
  EXPECT_EQ(persister.written(), 0);
  EXPECT_EQ(persister.dropped(), 5);
  EXPECT_EQ(persister.flushes(), 0);
  const auto counters = metrics.counter_map();
  EXPECT_EQ(counters.at("svc.persist_enqueued"),
            counters.at("svc.persist_written") +
                counters.at("svc.persist_dropped"));
  EXPECT_EQ(counters.at("svc.persist_written"), 0);
  EXPECT_TRUE(read_file(tmp.store_path()) == before);
}

}  // namespace
}  // namespace gpawfd
