// Shared plumbing of the whole-system benchmark: options, raw-sample
// statistics, process counters, the correctness checker, the per-run
// outcome, and the in-memory span tracer that writes Chrome trace-event
// JSON (the format bgsim::TraceLog::write_chrome_json emits).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Monotonic-clock seconds at which the launcher spawned this process
  /// (< 0: unknown, fall back to the first static initializer).
  double t0 = -1;
  /// Where traces and scratch cache directories go (relative paths are
  /// relative to the working directory, the checkout root).
  std::string out_dir = "perfbench-out";
  /// Self-test: the one deliberately wrong value to feed into the
  /// checker (halo_bytes, grid_point, reply_field or store_key; empty:
  /// none).
  std::string inject;
};

// ---- statistics over raw samples ------------------------------------

/// Linear-interpolated quantile (q in [0, 1]) of raw samples; 0 when empty.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// ---- process counters -------------------------------------------------

struct ProcUsage {
  double cpu_seconds = 0;        // user + system, all threads
  std::int64_t ctx_switches = 0;  // voluntary + involuntary
};
ProcUsage proc_usage();
double peak_rss_mib();
/// CPU time the hypervisor gave to other guests while this machine's
/// CPUs wanted to run (the `steal` column of /proc/stat), in CPU-seconds
/// summed over all CPUs; 0 where it cannot be read.
double steal_seconds();

/// Seconds on the monotonic clock (same clock as trace::now_seconds and
/// Python's time.monotonic).
double now();
/// The process's start on the monotonic clock, as known to this binary.
double process_start(const Options& opt);

// ---- correctness --------------------------------------------------------

/// Collects check outcomes. A failed check makes the run incorrect and
/// is reported on stderr (the first few in full).
class Checker {
 public:
  void expect(bool ok, const std::string& what);
  bool ok() const { return failures_.load() == 0; }
  std::int64_t failures() const { return failures_.load(); }

 private:
  std::mutex mu_;
  std::atomic<std::int64_t> failures_{0};
};

// ---- what one workload run produces -------------------------------------

struct PassResult {
  /// End-to-end values by metric name (ops_per_s, op_p50_ms, op_p99_ms).
  std::map<std::string, double> e2e;
  /// Per-layer values by metric name (filled by traced passes).
  std::map<std::string, double> layers;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
};

// ---- tracing --------------------------------------------------------------

/// Spans recorded from the benchmark's own code around calls into each
/// layer. Off unless enable() was called; recording appends to a
/// per-thread buffer, so the hot path takes no lock. Buffers are capped
/// (spans past the cap are counted, not kept).
class Tracer {
 public:
  struct Span {
    const char* name;
    double start;
    double end;
    std::uint64_t id;
    std::uint64_t parent;   // 0 = root
    std::uint64_t request;  // spans of one request/operation share it
    int tid;
  };

  static void enable(std::size_t max_spans);
  static void disable() { enabled_.store(false); }
  static bool on() { return enabled_.load(std::memory_order_relaxed); }
  static std::uint64_t next_id() {
    return ids_.fetch_add(1, std::memory_order_relaxed);
  }
  static void record(const Span& s);
  static std::int64_t recorded() { return recorded_.load(); }
  /// All kept spans as a Chrome trace-event JSON array ("ph":"X",
  /// microseconds); ids, parents and request ids go into "args".
  static bool write_chrome_json(const std::string& path);

 private:
  static std::atomic<bool> enabled_;
  static std::atomic<std::uint64_t> ids_;
  static std::atomic<std::int64_t> recorded_;
  static std::size_t max_spans_;
};

/// RAII span; a no-op when tracing is off.
class Scope {
 public:
  Scope(const char* name, std::uint64_t parent = 0, std::uint64_t request = 0)
      : on_(Tracer::on()) {
    if (!on_) return;
    span_ = {name, now(), 0, Tracer::next_id(), parent, request, 0};
  }
  ~Scope() {
    if (!on_) return;
    span_.end = now();
    Tracer::record(span_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::uint64_t id() const { return on_ ? span_.id : 0; }

 private:
  bool on_;
  Tracer::Span span_{};
};

// ---- workloads ---------------------------------------------------------------

/// A workload: the constructor is the set-up, then several measured
/// passes of equal length (see main.cpp). Each pass reports its own
/// end-to-end values, over all of its operations.
class Workload {
 public:
  virtual ~Workload() = default;
  /// One measured pass. With traced=true it also fills the per-layer
  /// values that come from the pass itself.
  virtual PassResult pass(double seconds, bool traced) = 0;
  /// Traced runs only, once after the passes: micro-probes of single
  /// layers, outside the measured passes.
  virtual void probe(std::map<std::string, double>* /*layers*/) {}
  /// Post-run checks that need the whole run (store reopen, ...).
  virtual void finish() {}
};

struct Context {
  Options opt;
  Checker check;
};

std::unique_ptr<Workload> make_engine_host(Context& ctx);
std::unique_ptr<Workload> make_serve_hot(Context& ctx);
std::unique_ptr<Workload> make_serve_cold(Context& ctx);

/// One round of the paper's Fig. 5 right-graph sweep through
/// core::simulate_job per host core, checked against closed forms; fills
/// the bgsim.* sweep metrics. A probe of serve_cold's traced runs.
void probe_figure_sweep(Context& ctx, std::map<std::string, double>* layers);

}  // namespace perfbench
