// Service-level observability: monotonic counters, queue-depth
// high-water mark, and latency histograms (trace::LatencyHistogram) for
// every stage a request passes through. All recording paths are
// relaxed-atomic — cheap enough to leave on permanently, in the spirit
// of trace::CommStats. `snapshot()` renders a consistent-enough text
// block (counters are read once each; exactness across counters is not
// guaranteed while traffic is in flight, which is the standard contract
// for service metrics).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>

#include "trace/stats.hpp"

namespace gpawfd::svc {

class Metrics {
 public:
  // ---- request accounting (one increment per submit) ----------------
  std::atomic<std::int64_t> submitted{0};     // every submit() call
  std::atomic<std::int64_t> cache_hits{0};    // served from ResultCache
  std::atomic<std::int64_t> dedup_joined{0};  // attached to an in-flight run
  std::atomic<std::int64_t> accepted{0};      // enqueued as a new execution
  std::atomic<std::int64_t> rejected_queue_full{0};
  std::atomic<std::int64_t> rejected_shutdown{0};

  // ---- execution accounting ------------------------------------------
  // Job-level: every accepted job ends exactly one way, so
  //   accepted == executed + gave_up + cancelled
  // once the service is quiescent.
  std::atomic<std::int64_t> executed{0};   // jobs completed successfully
  std::atomic<std::int64_t> gave_up{0};    // attempt budget exhausted
  std::atomic<std::int64_t> cancelled{0};  // discarded by shutdown
  // Attempt-level: each executor call is classified exactly one way
  // (success / threw / exceeded its deadline), so
  //   exec_failures + timeouts == retries + gave_up + mid-retry cancels.
  std::atomic<std::int64_t> exec_failures{0};  // attempt threw in budget
  std::atomic<std::int64_t> timeouts{0};       // attempt exceeded deadline
  std::atomic<std::int64_t> retries{0};        // re-executions started
  // Dispatch-level: every job leaves the queue inside exactly one
  // dispatch unit — a pop_batch() batch, or a single pop()/lane pop
  // (counted as a batch of 1) — so
  //   batched_jobs == accepted
  // once a drained service is quiescent, and batched_jobs / batches is
  // the realized amortization factor (batch_size holds its histogram).
  std::atomic<std::int64_t> batches{0};       // dispatch units
  std::atomic<std::int64_t> batched_jobs{0};  // jobs across all units

  // ---- persistent cache store -----------------------------------------
  // Warm load (startup): every recovered live record is either loaded or
  // skipped (stale version / expired / already present), so
  //   store live records == warm_loaded + warm_skipped.
  // Write-behind (steady state): every completed result handed to the
  // persister is eventually written or dropped by backpressure, so
  //   persist_enqueued == persist_written + persist_dropped
  // once the service is quiescent (after shutdown or flush). The five
  // persist_* counters are the persister's WriteBehind ledger itself.
  std::atomic<std::int64_t> warm_loaded{0};
  std::atomic<std::int64_t> warm_skipped{0};
  // Peer cache-fill ingest (cluster replication): every received fill is
  // either accepted into the cache or rejected (stale version / expired /
  // in flight / equal-or-newer entry cached), so
  //   fills_received == fills_accepted + fills_rejected.
  std::atomic<std::int64_t> fills_received{0};
  std::atomic<std::int64_t> fills_accepted{0};
  std::atomic<std::int64_t> fills_rejected{0};
  std::atomic<std::int64_t> persist_enqueued{0};
  std::atomic<std::int64_t> persist_written{0};
  std::atomic<std::int64_t> persist_dropped{0};  // drop-oldest backpressure
  std::atomic<std::int64_t> persist_flushes{0};  // fsync barriers
  std::atomic<std::int64_t> persist_compactions{0};

  // ---- telemetry sink -------------------------------------------------
  // Periodic-flush accounting: every row the service hands to the
  // telemetry sink is eventually written or dropped by backpressure, so
  //   telemetry_rows == sink written + telemetry_dropped
  // once the sink is flushed and the service quiescent.
  std::atomic<std::int64_t> telemetry_rows{0};     // rows recorded
  std::atomic<std::int64_t> telemetry_dropped{0};  // drop-oldest backpressure
  std::atomic<std::int64_t> telemetry_flushes{0};  // periodic flush passes

  // ---- latency histograms --------------------------------------------
  trace::LatencyHistogram queue_wait;    // enqueue -> picked up by a worker
  trace::LatencyHistogram exec_time;     // successful executor run (cold)
  trace::LatencyHistogram attempt_time;  // every attempt, incl. failed ones
  trace::LatencyHistogram hit_time;      // submit() latency for cache hits
  trace::SizeHistogram batch_size;       // jobs per dispatch unit

  // ---- gauges ---------------------------------------------------------
  void note_queue_depth(std::int64_t depth) {
    std::int64_t seen = queue_depth_high_water_.load(std::memory_order_relaxed);
    while (depth > seen && !queue_depth_high_water_.compare_exchange_weak(
                               seen, depth, std::memory_order_relaxed)) {
    }
  }
  std::int64_t queue_depth_high_water() const {
    return queue_depth_high_water_.load(std::memory_order_relaxed);
  }

  /// cache_hits / (cache_hits + misses); misses = joined + accepted.
  double hit_ratio() const;

  /// Multi-line human/machine-greppable text block (key: value lines),
  /// the exporter the examples and benches print.
  std::string snapshot(std::int64_t cache_size = -1,
                       std::int64_t cache_evictions = -1,
                       std::int64_t cache_expired = -1) const;

  /// Every monotonic counter by snapshot name — no histograms, no
  /// timings, so two runs of the same deterministic schedule compare
  /// equal (the fault tests' reproducibility check).
  std::map<std::string, std::int64_t> counter_map() const;

 private:
  std::atomic<std::int64_t> queue_depth_high_water_{0};
};

}  // namespace gpawfd::svc
