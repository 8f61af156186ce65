#include "bench.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

ProcUsage proc_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return {secs(ru.ru_utime) + secs(ru.ru_stime),
          static_cast<std::int64_t>(ru.ru_nvcsw + ru.ru_nivcsw)};
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double steal_seconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double field[8] = {};  // user nice system idle iowait irq softirq steal
  if (!(stat >> cpu) || cpu != "cpu") return 0;
  for (double& f : field)
    if (!(stat >> f)) return 0;
  return field[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double now() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

namespace {
const double g_static_start = now();
}  // namespace

double process_start(const Options& opt) {
  return opt.t0 > 0 ? opt.t0 : g_static_start;
}

void Checker::expect(bool ok, const std::string& what) {
  if (ok) return;
  const std::int64_t n = failures_.fetch_add(1) + 1;
  std::lock_guard lock(mu_);
  if (n <= 8) std::cerr << "CHECK FAILED: " << what << "\n";
}

// ---- tracer -----------------------------------------------------------------

std::atomic<bool> Tracer::enabled_{false};
std::atomic<std::uint64_t> Tracer::ids_{1};
std::atomic<std::int64_t> Tracer::recorded_{0};
std::size_t Tracer::max_spans_ = 0;

namespace {

struct ThreadBuffer {
  int tid = 0;
  std::vector<Tracer::Span> spans;
};

std::mutex g_buffers_mu;
// Buffers outlive their threads (the process writes them at exit).
std::vector<std::unique_ptr<ThreadBuffer>>& buffers() {
  static std::vector<std::unique_ptr<ThreadBuffer>> b;
  return b;
}

ThreadBuffer& this_thread_buffer() {
  thread_local ThreadBuffer* buf = [] {
    std::lock_guard lock(g_buffers_mu);
    auto& all = buffers();
    all.push_back(std::make_unique<ThreadBuffer>());
    all.back()->tid = static_cast<int>(all.size());
    return all.back().get();
  }();
  return *buf;
}

}  // namespace

void Tracer::enable(std::size_t max_spans) {
  max_spans_ = max_spans;
  enabled_.store(true);
}

void Tracer::record(const Span& s) {
  const std::int64_t n = recorded_.fetch_add(1, std::memory_order_relaxed);
  if (static_cast<std::size_t>(n) >= max_spans_) return;
  ThreadBuffer& buf = this_thread_buffer();
  buf.spans.push_back(s);
  buf.spans.back().tid = buf.tid;
}

bool Tracer::write_chrome_json(const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  os.precision(15);
  os << "[\n";
  bool first = true;
  std::lock_guard lock(g_buffers_mu);
  for (const auto& buf : buffers()) {
    for (const Span& s : buf->spans) {
      if (!first) os << ",\n";
      first = false;
      os << R"({"name":")" << s.name << R"(","cat":"perfbench","ph":"X","ts":)"
         << s.start * 1e6 << R"(,"dur":)" << (s.end - s.start) * 1e6
         << R"(,"pid":0,"tid":)" << s.tid << R"(,"args":{"id":)" << s.id
         << R"(,"parent":)" << s.parent << R"(,"request":)" << s.request
         << "}}";
    }
  }
  os << "\n]\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench
