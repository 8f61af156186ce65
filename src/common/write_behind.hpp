// Write-behind: producers on any thread push into a bounded queue and
// one writer thread drains it to durable storage — the thread under
// svc::Persister and telemetry::TelemetrySink. push() never blocks on
// I/O; a full queue drops its *oldest* item. Each drain hands the whole
// backlog to `write` as one batch, then calls `sync` once (fsync plus
// housekeeping such as compaction, on the writer thread). At quiescence
// enqueued == written + dropped. A queue built not ready parks the
// writer until mark_ready(); shut down before that, it drops everything
// and writes nothing. DESIGN.md §17 has the contract.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace gpawfd {

/// The counters a WriteBehind increments; null means the queue's own.
/// An owner that exports counters (svc::Metrics) points them there.
struct WriteBehindLedger {
  std::atomic<std::int64_t>* enqueued = nullptr;
  std::atomic<std::int64_t>* written = nullptr;
  std::atomic<std::int64_t>* dropped = nullptr;
  std::atomic<std::int64_t>* flushes = nullptr;  // drains ended by a sync
  std::atomic<std::int64_t>* compactions = nullptr;
};

template <typename T>
class WriteBehind {
 public:
  using WriteFn = std::function<void(std::vector<T>& batch)>;
  using SyncFn = std::function<bool()>;  // true when it also compacted

  WriteBehind(std::size_t capacity, WriteFn write, SyncFn sync,
              WriteBehindLedger ledger = {}, bool ready = true)
      : capacity_(capacity),
        write_(std::move(write)),
        sync_(std::move(sync)),
        ledger_(ledger),
        ready_(ready) {
    GPAWFD_CHECK(capacity_ >= 1);
    std::atomic<std::int64_t>** slots[] = {
        &ledger_.enqueued, &ledger_.written, &ledger_.dropped,
        &ledger_.flushes, &ledger_.compactions};
    for (int i = 0; i < 5; ++i)
      if (*slots[i] == nullptr) *slots[i] = &own_[i];
    thread_ = std::thread([this] { loop(); });
  }
  ~WriteBehind() { shutdown(); }
  WriteBehind(const WriteBehind&) = delete;
  WriteBehind& operator=(const WriteBehind&) = delete;

  /// Returns false when the push caused a drop: the oldest pending item
  /// when full, this item after shutdown().
  bool push(T item) {
    bool kept;
    {
      std::lock_guard lock(mu_);
      add(ledger_.enqueued, 1);
      kept = admit(std::move(item));
    }
    cv_.notify_one();
    return kept;
  }

  /// push() for a batch under one lock and one thread wake.
  void push_batch(std::vector<T> items) {
    if (items.empty()) return;
    {
      std::lock_guard lock(mu_);
      add(ledger_.enqueued, static_cast<std::int64_t>(items.size()));
      for (T& item : items) admit(std::move(item));
    }
    cv_.notify_one();
  }

  /// The storage is recovered: start draining.
  void mark_ready() {
    {
      std::lock_guard lock(mu_);
      ready_ = true;
    }
    cv_.notify_all();
  }

  /// Block until everything pushed so far is written and synced.
  void flush() {
    std::unique_lock lk(mu_);
    idle_cv_.wait(lk, [&] { return queue_.empty() && !draining_; });
  }

  /// Drain the queue, sync, and stop the thread. Idempotent.
  void shutdown() {
    {
      std::lock_guard lock(mu_);
      if (closed_ && !thread_.joinable()) return;
      closed_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  std::int64_t enqueued() const { return ledger_.enqueued->load(); }
  std::int64_t written() const { return ledger_.written->load(); }
  std::int64_t dropped() const { return ledger_.dropped->load(); }
  std::int64_t flushes() const { return ledger_.flushes->load(); }
  std::int64_t compactions() const { return ledger_.compactions->load(); }

 private:
  static void add(std::atomic<std::int64_t>* counter, std::int64_t n) {
    counter->fetch_add(n, std::memory_order_relaxed);
  }

  // Under mu_. False when something was dropped.
  bool admit(T&& item) {
    if (closed_) {
      add(ledger_.dropped, 1);
      return false;
    }
    bool kept = true;
    if (queue_.size() >= capacity_) {
      queue_.pop_front();
      add(ledger_.dropped, 1);
      kept = false;
    }
    queue_.push_back(std::move(item));
    return kept;
  }

  void loop() {
    std::unique_lock lk(mu_);
    for (;;) {
      cv_.wait(lk, [&] { return closed_ || (ready_ && !queue_.empty()); });
      if (closed_ && !ready_) {
        // Shut down before the storage was recovered: it was never
        // legal to append to. Whatever queued is dropped.
        add(ledger_.dropped, static_cast<std::int64_t>(queue_.size()));
        queue_.clear();
        break;
      }
      if (queue_.empty()) break;  // closed and fully drained (and synced)
      draining_ = true;
      while (!queue_.empty()) {
        std::vector<T> batch;
        batch.reserve(queue_.size());
        for (T& item : queue_) batch.push_back(std::move(item));
        queue_.clear();
        lk.unlock();
        write_(batch);
        add(ledger_.written, static_cast<std::int64_t>(batch.size()));
        lk.lock();
      }
      lk.unlock();
      const bool compacted = sync_();
      add(ledger_.flushes, 1);
      if (compacted) add(ledger_.compactions, 1);
      lk.lock();
      draining_ = false;
      idle_cv_.notify_all();
      if (closed_ && queue_.empty()) break;
    }
    // A flush() racing a pre-ready shutdown must not wait forever.
    idle_cv_.notify_all();
  }

  const std::size_t capacity_;
  const WriteFn write_;
  const SyncFn sync_;
  WriteBehindLedger ledger_;
  std::atomic<std::int64_t> own_[5] = {};

  std::mutex mu_;
  std::condition_variable cv_;       // wakes the writer thread
  std::condition_variable idle_cv_;  // wakes flush() waiters
  std::deque<T> queue_;
  bool ready_;
  bool closed_ = false;
  bool draining_ = false;  // thread is between pop and post-drain sync

  std::thread thread_;
};

}  // namespace gpawfd
