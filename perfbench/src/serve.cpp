// serve_hot and serve_cold: the deployed request path. A cluster::Router
// behind a net::Server fronts two net::Server + svc::SimService
// backends on loopback; load comes from net::Clients in this process.
//
// serve_hot: a seeded Zipf(1.1) mix over a catalog of 64 small jobs, all
//   warmed into the caches during set-up. Each pass runs a closed loop
//   at saturation (2 connections, pipeline window 8), then an open loop
//   at 5000 req/s with Poisson arrivals, latency timed from each
//   request's due time.
// serve_cold: fresh cache directories, 4 sync connections sending
//   seeded, all-distinct small jobs; every request executes, is
//   persisted write-behind and replicated to the other node.
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <future>
#include <iostream>
#include <random>
#include <set>
#include <thread>

#include "bench.hpp"
#include "cluster/router.hpp"
#include "core/result_codec.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "svc/cache_store.hpp"
#include "svc/job_key.hpp"
#include "svc/service.hpp"

namespace perfbench {
namespace {

using namespace gpawfd;
using core::SimJobSpec;
using core::SimResult;
using sched::Approach;
using sched::Optimizations;

constexpr Approach kApproach[4] = {
    Approach::kFlatOriginal, Approach::kFlatOptimized,
    Approach::kHybridMultiple, Approach::kHybridMasterOnly};

SimJobSpec small_job(int approach, int cores, int edge, int ngrids, int batch) {
  SimJobSpec s;
  s.approach = kApproach[approach];
  s.job.grid_shape = Vec3::cube(edge);
  s.job.ngrids = ngrids;
  s.opt = approach == 0 ? Optimizations::original() : Optimizations::all_on(batch);
  s.total_cores = cores;
  s.cores_per_node = 4;
  return s;
}

/// Router + two backends on loopback ports.
class Cluster {
 public:
  Cluster(int workers, const std::vector<std::string>& cache_dirs) {
    cluster::RouterConfig rc;
    for (std::size_t i = 0; i < cache_dirs.size(); ++i) {
      svc::ServiceConfig sc;
      sc.workers = workers;
      sc.cache_dir = cache_dirs[i];
      services_.push_back(std::make_unique<svc::SimService>(sc));
      servers_.push_back(std::make_unique<net::Server>(*services_.back()));
      rc.backends.push_back(
          {"127.0.0.1", servers_.back()->port(), "node-" + std::to_string(i)});
    }
    // The front door carries many users' requests on few connections
    // (the open loop's two), so a host stall must queue them rather than
    // trip the per-connection and router admission limits.
    rc.queue_capacity = 1 << 16;
    router_ = std::make_unique<cluster::Router>(rc);
    router_->probe_all();
    net::ServerConfig front;
    front.max_inflight_per_conn = 1 << 16;
    front_ = std::make_unique<net::Server>(*router_, front);
  }
  ~Cluster() { shutdown(); }
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Front first, services last (their destructors drain persistence).
  /// Returns persist_dropped summed over the backends.
  std::int64_t shutdown() {
    front_.reset();
    router_.reset();
    servers_.clear();
    std::int64_t dropped = 0;
    for (auto& s : services_) {
      s->shutdown(true);
      dropped += s->metrics().persist_dropped.load();
    }
    services_.clear();
    return dropped;
  }

  std::uint16_t port() const { return front_->port(); }
  std::uint16_t backend_port(int i) const {
    return servers_[static_cast<std::size_t>(i)]->port();
  }
  svc::SimService& service(int i) { return *services_[static_cast<std::size_t>(i)]; }
  const net::ServerMetrics& front_metrics() const { return front_->metrics(); }
  const cluster::RouterMetrics& router_metrics() const { return router_->metrics(); }
  std::int64_t executed() const {
    std::int64_t n = 0;
    for (const auto& s : services_) n += s->metrics().executed.load();
    return n;
  }

 private:
  std::vector<std::unique_ptr<svc::SimService>> services_;
  std::vector<std::unique_ptr<net::Server>> servers_;
  std::unique_ptr<cluster::Router> router_;
  std::unique_ptr<net::Server> front_;
};

/// Sync round trips to `port`, p50 in microseconds.
double sync_rtt_us_p50(std::uint16_t port, const std::vector<SimJobSpec>& jobs,
                       int n, std::uint64_t seed) {
  net::ClientConfig cfg;
  cfg.port = port;
  net::Client client(cfg);
  std::mt19937_64 rng(seed);
  std::vector<double> lat;
  for (int i = 0; i < n; ++i) {
    const auto& spec = jobs[rng() % jobs.size()];
    const double t0 = now();
    client.submit(spec);
    if (i >= n / 10) lat.push_back(now() - t0);  // after connection warm-up
  }
  return median(lat) * 1e6;
}

// ---- serve_hot ------------------------------------------------------------

constexpr int kCatalog = 64;
constexpr std::uint64_t kPopularitySeed = 64;
constexpr int kHotConnections = 2;
constexpr std::size_t kWindow = 8;
constexpr double kOpenLoopRate = 5000;

class ServeHot final : public Workload {
 public:
  explicit ServeHot(Context& ctx) : ctx_(ctx) {
    constexpr int kCoresList[4] = {16, 32, 64, 128};
    constexpr int kEdges[4] = {24, 32, 40, 48};
    for (int i = 0; i < kCatalog; ++i)
      catalog_.push_back(small_job(i % 4, kCoresList[(i / 4) % 4],
                                   kEdges[(i / 16) % 4], 16, 4));
    // Which keys are hot is part of the workload and the same for every
    // seed: drawn from the seed, it decided how much of the hot traffic
    // each backend owned, and closed-loop throughput moved with it
    // (about 24 000 vs 28 000 req/s). The seed draws the requests.
    std::mt19937_64 rng(kPopularitySeed);
    std::vector<int> ranked(kCatalog);
    for (int i = 0; i < kCatalog; ++i) ranked[static_cast<std::size_t>(i)] = i;
    std::shuffle(ranked.begin(), ranked.end(), rng);
    ranked_ = ranked;
    double total = 0;
    for (int r = 1; r <= kCatalog; ++r) total += 1.0 / std::pow(r, 1.1);
    double acc = 0;
    for (int r = 1; r <= kCatalog; ++r) {
      acc += 1.0 / std::pow(r, 1.1) / total;
      zipf_cdf_.push_back(acc);
    }

    cluster_ = std::make_unique<Cluster>(2, std::vector<std::string>(2));
    // Warm every key through the router, 4 connections in parallel, and
    // compute each key's reference result directly.
    expected_.resize(kCatalog);
    expected_bits_.resize(kCatalog);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        net::ClientConfig cfg;
        cfg.port = cluster_->port();
        net::Client client(cfg);
        for (int i = t; i < kCatalog; i += 4) {
          const auto idx = static_cast<std::size_t>(i);
          client.submit(catalog_[idx]);
          expected_[idx] = core::simulate_job(catalog_[idx]);
          expected_bits_[idx] = core::encode_sim_result(expected_[idx]);
        }
      });
    }
    for (auto& t : threads) t.join();
    warm_executed_ = cluster_->executed();
    ctx_.check.expect(warm_executed_ == kCatalog,
                      "serve_hot: warm-up executed " +
                          std::to_string(warm_executed_) + " jobs, catalog " +
                          std::to_string(kCatalog));
  }

  PassResult pass(double seconds, bool traced) override {
    PassResult out;
    const std::uint64_t pass_seed = ctx_.opt.seed * 31337ULL + pass_++;
    const ProcUsage u0 = proc_usage();

    // Closed loop at saturation, then an open loop at a fixed rate.
    const auto flushes0 = cluster_->front_metrics().flushes.load();
    const auto frames0 = cluster_->front_metrics().frames_out.load();
    const double c0 = now();
    const std::vector<double> closed = run_closed(seconds / 2, pass_seed, &out);
    const double closed_s = now() - c0;
    const auto flushes = cluster_->front_metrics().flushes.load() - flushes0;
    const auto frames = cluster_->front_metrics().frames_out.load() - frames0;
    std::vector<double> late;
    const std::vector<double> open = run_open(seconds / 2, pass_seed + 1, &late, &out);
    const ProcUsage u1 = proc_usage();

    ctx_.check.expect(cluster_->executed() == warm_executed_,
                      "serve_hot: backends executed jobs during the measured phases");

    out.e2e["ops_per_s"] = static_cast<double>(closed.size()) / closed_s;
    out.e2e["op_p99_ms"] = quantile(closed, 0.99) * 1e3;
    out.e2e["op_p50_ms"] = quantile(open, 0.5) * 1e3;
    if (traced) {
      const double reqs = static_cast<double>(out.attempted);
      auto& L = out.layers;
      L["proc.cpu_ms_per_kreq"] = (u1.cpu_seconds - u0.cpu_seconds) * 1e3 / reqs * 1e3;
      L["proc.ctx_switches_per_req"] =
          static_cast<double>(u1.ctx_switches - u0.ctx_switches) / reqs;
      L["net.frames_per_flush"] = static_cast<double>(frames) /
                                  static_cast<double>(std::max<std::int64_t>(1, flushes));
      L["load.late_us_p99"] = quantile(late, 0.99) * 1e6;
      // Reference only: the open loop's p99 swings with host stalls,
      // which is why it is no end-to-end metric.
      L["load.open_p99_us"] = quantile(open, 0.99) * 1e6;
    }
    return out;
  }

  /// Micro-probes of the layers on the hot path.
  void probe(std::map<std::string, double>* L) override {
    const std::string canonical = svc::JobKey::of(catalog_[0]).canonical();
    constexpr int kIters = 20000;
    std::vector<double> enc, dec;
    const auto result_frame = net::make_result_frame(1, expected_[0]);
    for (int rep = 0; rep < 5; ++rep) {
      double t0 = now();
      std::size_t bytes = 0;
      for (int i = 0; i < kIters; ++i)
        bytes += net::make_submit_frame(static_cast<std::uint64_t>(i), canonical,
                                        svc::Priority::kNormal).size();
      enc.push_back((now() - t0) / kIters);
      ctx_.check.expect(bytes > 0, "serve_hot: empty submit frames");
      t0 = now();
      net::FrameDecoder decoder;
      int mismatched = 0;
      for (int i = 0; i < kIters; ++i) {
        decoder.feed(result_frame.data(), result_frame.size());
        auto r = decoder.next();
        const SimResult d =
            net::decode_sim_result(r.frame.payload.data(), r.frame.payload.size());
        mismatched += d.messages_total != expected_[0].messages_total;
      }
      dec.push_back((now() - t0) / kIters);
      ctx_.check.expect(mismatched == 0, "serve_hot: decoded result differs");
    }
    (*L)["net.submit_encode_ns"] = median(enc) * 1e9;
    (*L)["net.result_decode_ns"] = median(dec) * 1e9;

    const double direct = sync_rtt_us_p50(cluster_->backend_port(0), catalog_, 2000,
                                          ctx_.opt.seed);
    const double routed = sync_rtt_us_p50(cluster_->port(), catalog_, 2000,
                                          ctx_.opt.seed);
    (*L)["net.direct_rtt_us_p50"] = direct;
    (*L)["cluster.hop_us_p50"] = routed - direct;

    // In-process hit on a key backend 0 holds.
    svc::SimService& service = cluster_->service(0);
    std::vector<double> hit;
    for (int i = 0; i < 5000; ++i) {
      Scope s("svc.submit_hit");
      const double t0 = now();
      auto ticket = service.submit(catalog_[0]);
      ticket.result.get();
      if (ticket.status == svc::SubmitStatus::kCacheHit) hit.push_back(now() - t0);
    }
    (*L)["svc.hit_us_p50"] = median(hit) * 1e6;
  }

 private:
  const SimJobSpec& pick(std::mt19937_64& rng, std::size_t* key) const {
    const double u = std::uniform_real_distribution<double>(0, 1)(rng);
    const auto r = static_cast<std::size_t>(
        std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) - zipf_cdf_.begin());
    *key = static_cast<std::size_t>(ranked_[std::min<std::size_t>(r, kCatalog - 1)]);
    return catalog_[*key];
  }

  void settle(std::future<SimResult>& f, std::size_t key, double t0,
              std::vector<double>* lat, std::int64_t* failed, std::uint64_t rid) {
    try {
      Scope s("net.reply_wait", 0, rid);
      SimResult r = f.get();
      lat->push_back(now() - t0);
      if (ctx_.opt.inject == "reply_field" && rid == 1) r.messages_total ^= 1;
      ctx_.check.expect(core::encode_sim_result(r) == expected_bits_[key],
                        "serve_hot: reply differs from a direct simulate_job");
    } catch (const net::RpcError& e) {
      if (++*failed <= 3) std::cerr << "serve_hot: request failed: " << e.what() << "\n";
    }
  }

  /// Closed loop at saturation for `seconds`; returns the latencies.
  std::vector<double> run_closed(double seconds, std::uint64_t seed,
                                 PassResult* out) {
    std::vector<std::vector<double>> lats(kHotConnections);
    std::vector<std::int64_t> sent(kHotConnections), failed(kHotConnections);
    std::vector<std::thread> threads;
    const double deadline = now() + seconds;
    for (int c = 0; c < kHotConnections; ++c) {
      threads.emplace_back([&, c] {
        const auto ci = static_cast<std::size_t>(c);
        std::mt19937_64 rng(seed * 17 + ci);
        net::ClientConfig cfg;
        cfg.port = cluster_->port();
        cfg.pipeline_window = kWindow;
        net::Client client(cfg);
        struct Pending {
          std::future<SimResult> f;
          std::size_t key;
          double t0;
          std::uint64_t rid;
        };
        std::deque<Pending> window;
        while (now() < deadline) {
          while (window.size() >= kWindow) {
            auto& p = window.front();
            settle(p.f, p.key, p.t0, &lats[ci], &failed[ci], p.rid);
            window.pop_front();
          }
          std::size_t key = 0;
          const SimJobSpec& spec = pick(rng, &key);
          const std::uint64_t rid = next_rid_++;
          Scope s("net.submit_async", 0, rid);
          const double t0 = now();
          ++sent[ci];
          try {
            window.push_back({client.submit_async(spec), key, t0, rid});
          } catch (const net::RpcError&) {
            ++failed[ci];
          }
        }
        while (!window.empty()) {
          auto& p = window.front();
          settle(p.f, p.key, p.t0, &lats[ci], &failed[ci], p.rid);
          window.pop_front();
        }
      });
    }
    for (auto& t : threads) t.join();
    std::vector<double> lat;
    for (int c = 0; c < kHotConnections; ++c) {
      const auto ci = static_cast<std::size_t>(c);
      lat.insert(lat.end(), lats[ci].begin(), lats[ci].end());
      out->attempted += sent[ci];
      out->failed += failed[ci];
    }
    return lat;
  }

  /// Open loop for `seconds`. Per connection, a sender submits on a
  /// Poisson schedule and a collector waits for the replies in order.
  /// Returns the latencies, timed from each request's due time.
  std::vector<double> run_open(double seconds, std::uint64_t seed,
                               std::vector<double>* late, PassResult* out) {
    struct Pending {
      std::future<SimResult> f;
      std::size_t key;
      double due;
      std::uint64_t rid;
    };
    struct Conn {
      std::mutex mu;
      std::condition_variable cv;
      std::deque<Pending> q;
      bool done = false;
      std::vector<double> lat;
      std::vector<double> late;
      std::int64_t sent = 0, failed = 0;
    };
    std::vector<std::unique_ptr<Conn>> conns;
    for (int c = 0; c < kHotConnections; ++c) conns.push_back(std::make_unique<Conn>());
    std::vector<std::thread> threads;
    const double start = now() + 0.01;
    const double end = start + seconds;
    for (int c = 0; c < kHotConnections; ++c) {
      Conn& conn = *conns[static_cast<std::size_t>(c)];
      auto client = std::make_shared<net::Client>([&] {
        net::ClientConfig cfg;
        cfg.port = cluster_->port();
        return cfg;
      }());
      threads.emplace_back([&, c, client] {
        // Wake at each due time, not up to the default 50 us timer slack
        // after it: that lateness would be counted as latency.
        ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
        std::mt19937_64 rng(seed * 13 + static_cast<std::uint64_t>(c));
        std::exponential_distribution<double> gap(kOpenLoopRate / kHotConnections);
        double due = start;
        while (true) {
          due += gap(rng);
          if (due >= end) break;
          const double wait = due - now();
          if (wait > 0)
            std::this_thread::sleep_for(std::chrono::duration<double>(wait));
          std::size_t key = 0;
          const SimJobSpec& spec = pick(rng, &key);
          conn.late.push_back(now() - due);
          ++conn.sent;
          const std::uint64_t rid = next_rid_++;
          try {
            Scope s("net.submit_async", 0, rid);
            auto f = client->submit_async(spec);
            std::lock_guard lock(conn.mu);
            conn.q.push_back({std::move(f), key, due, rid});
          } catch (const net::RpcError&) {
            std::lock_guard lock(conn.mu);
            ++conn.failed;
          }
          conn.cv.notify_one();
        }
        std::lock_guard lock(conn.mu);
        conn.done = true;
        conn.cv.notify_one();
      });
      threads.emplace_back([&, client] {
        while (true) {
          Pending p;
          {
            std::unique_lock lock(conn.mu);
            conn.cv.wait(lock, [&] { return conn.done || !conn.q.empty(); });
            if (conn.q.empty()) break;
            p = std::move(conn.q.front());
            conn.q.pop_front();
          }
          std::int64_t failed = 0;
          settle(p.f, p.key, p.due, &conn.lat, &failed, p.rid);
          std::lock_guard lock(conn.mu);
          conn.failed += failed;
        }
      });
    }
    for (auto& t : threads) t.join();
    std::vector<double> lat;
    for (auto& c : conns) {
      lat.insert(lat.end(), c->lat.begin(), c->lat.end());
      late->insert(late->end(), c->late.begin(), c->late.end());
      out->attempted += c->sent;
      out->failed += c->failed;
    }
    return lat;
  }


  Context& ctx_;
  std::vector<SimJobSpec> catalog_;
  std::vector<SimResult> expected_;
  /// expected_ through the wire codec: bit-exact in every field.
  std::vector<std::vector<std::uint8_t>> expected_bits_;
  std::vector<int> ranked_;
  std::vector<double> zipf_cdf_;
  std::unique_ptr<Cluster> cluster_;
  std::int64_t warm_executed_ = 0;
  std::uint64_t pass_ = 0;
  /// Request ids, shared by the spans of one request.
  std::atomic<std::uint64_t> next_rid_{1};
};

// ---- serve_cold -------------------------------------------------------------

constexpr int kColdConnections = 4;
constexpr int kColdWorkers = 2;
constexpr int kColdSample = 32;

class ServeCold final : public Workload {
 public:
  explicit ServeCold(Context& ctx) : ctx_(ctx), rng_(ctx.opt.seed) {
    root_ = ctx_.opt.out_dir + "/cold-" + std::to_string(::getpid());
    std::filesystem::remove_all(root_);
    for (int i = 0; i < 2; ++i)
      dirs_.push_back(root_ + "/node-" + std::to_string(i));
    cluster_ = std::make_unique<Cluster>(kColdWorkers, dirs_);
  }

  ~ServeCold() override {
    cluster_.reset();
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
  }

  PassResult pass(double seconds, bool traced) override {
    PassResult out;
    // Jobs are drawn as the connections ask for them, so the pass never
    // runs dry; replies[i] answers jobs[i].
    std::mutex mu;
    std::vector<SimJobSpec> jobs;
    std::vector<SimResult> replies;
    std::vector<char> done;
    std::vector<std::vector<double>> lats(kColdConnections);
    std::vector<std::int64_t> failed(kColdConnections);
    const auto fills0 = cluster_->router_metrics().fills_sent.load();
    const ProcUsage u0 = proc_usage();
    const double start = now();
    const double deadline = start + seconds;
    std::vector<std::thread> threads;
    for (int c = 0; c < kColdConnections; ++c) {
      threads.emplace_back([&, c] {
        const auto ci = static_cast<std::size_t>(c);
        net::ClientConfig cfg;
        cfg.port = cluster_->port();
        net::Client client(cfg);
        while (now() < deadline) {
          std::size_t i = 0;
          SimJobSpec spec;
          {
            std::lock_guard lock(mu);
            spec = next_job();
            i = jobs.size();
            jobs.push_back(spec);
            replies.emplace_back();
            done.push_back(0);
          }
          Scope s("net.submit", 0, i + 1);
          const double t0 = now();
          try {
            const SimResult r = client.submit(spec);
            lats[ci].push_back(now() - t0);
            std::lock_guard lock(mu);
            replies[i] = r;
            done[i] = 1;
          } catch (const net::RpcError&) {
            ++failed[ci];
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    const double end = now();
    const ProcUsage u1 = proc_usage();
    const std::size_t issued = jobs.size();
    std::vector<double> lat;
    for (int c = 0; c < kColdConnections; ++c) {
      const auto ci = static_cast<std::size_t>(c);
      lat.insert(lat.end(), lats[ci].begin(), lats[ci].end());
      out.failed += failed[ci];
    }
    out.attempted = static_cast<std::int64_t>(lat.size()) + out.failed;
    ctx_.check.expect(issued == static_cast<std::size_t>(out.attempted),
                      "serve_cold: requests lost track of");
    for (std::size_t i = 0; i < issued; ++i)
      if (done[i]) submitted_.push_back(svc::JobKey::of(jobs[i]).canonical());

    // A seeded sample of replies against direct simulate_job calls (its
    // single-thread times are bgsim.exec_ms_p50).
    std::vector<double> exec;
    std::mt19937_64 pick(ctx_.opt.seed * 7 + pass_++);
    for (int k = 0; k < kColdSample && issued > 0; ++k) {
      const std::size_t i = pick() % issued;
      if (!done[i]) continue;
      const double t0 = now();
      const SimResult direct = core::simulate_job(jobs[i]);
      exec.push_back(now() - t0);
      ctx_.check.expect(
          core::encode_sim_result(direct) == core::encode_sim_result(replies[i]),
                        "serve_cold: reply differs from a direct simulate_job");
    }

    out.e2e["ops_per_s"] = static_cast<double>(lat.size()) / (end - start);
    out.e2e["op_p50_ms"] = quantile(lat, 0.5) * 1e3;
    out.e2e["op_p99_ms"] = quantile(lat, 0.99) * 1e3;
    if (traced) {
      auto& L = out.layers;
      const double jobs_done = static_cast<double>(lat.size());
      L["bgsim.exec_ms_p50"] = median(exec) * 1e3;
      L["svc.wait_ms_p50"] = out.e2e["op_p50_ms"] - L["bgsim.exec_ms_p50"];
      L["cluster.fills_per_job"] =
          static_cast<double>(cluster_->router_metrics().fills_sent.load() - fills0) /
          jobs_done;
      L["proc.cpu_ms_per_job"] = (u1.cpu_seconds - u0.cpu_seconds) * 1e3 / jobs_done;
    }
    return out;
  }

  void probe(std::map<std::string, double>* layers) override {
    (*layers)["svc.store_append_us"] = probe_store();
    probe_figure_sweep(ctx_, layers);
  }

  /// Drain both backends, then reopen their stores: every submitted key
  /// must be found in one of them.
  void finish() override {
    const std::int64_t dropped = cluster_->shutdown();
    std::set<std::string> stored;
    for (const auto& dir : dirs_) {
      svc::CacheStore store(svc::CacheStore::path_in(dir));
      for (const auto& rec : store.recover(nullptr, /*repair=*/false))
        stored.insert(rec.key);
    }
    if (ctx_.opt.inject == "store_key" && !submitted_.empty()) stored.erase(submitted_.front());
    if (dropped == 0) {
      std::int64_t missing = 0;
      for (const auto& k : submitted_) missing += stored.count(k) ? 0 : 1;
      ctx_.check.expect(missing == 0, "serve_cold: " + std::to_string(missing) +
                                          " submitted keys missing from the reopened stores");
    } else {
      std::cerr << "serve_cold: persist_dropped = " << dropped
                << ", store completeness not checked\n";
    }
  }

 private:
  /// A seeded small job no earlier request of this run has used.
  SimJobSpec next_job() {
    while (true) {
      const int a = static_cast<int>(rng_() % 4);
      const int cores = 32 << (rng_() % 2);
      const int edge = 24 + static_cast<int>(rng_() % 48);
      const int ngrids = 16 + static_cast<int>(rng_() % 64);
      const int batch = 2 << (rng_() % 3);
      SimJobSpec spec = small_job(a, cores, edge, ngrids, batch);
      if (keys_.insert(svc::JobKey::of(spec).canonical()).second) return spec;
    }
  }

  /// CacheStore::append_puts + sync per record on a scratch store.
  double probe_store() {
    const std::string dir = root_ + "/store-probe";
    std::filesystem::create_directories(dir);
    std::vector<double> t;
    {
      svc::CacheStore store(svc::CacheStore::path_in(dir));
      store.recover();
      const auto value = core::encode_sim_result(SimResult{});
      for (int i = 0; i < 200; ++i) {
        std::vector<svc::CacheStore::StorePut> puts(1);
        puts[0].key = "probe-" + std::to_string(i);
        puts[0].value = value;
        Scope s("svc.store_append");
        const double t0 = now();
        store.append_puts(puts);
        store.sync();
        t.push_back(now() - t0);
      }
    }
    std::filesystem::remove_all(dir);
    return median(t) * 1e6;
  }

  Context& ctx_;
  std::mt19937_64 rng_;
  std::string root_;
  std::vector<std::string> dirs_;
  std::unique_ptr<Cluster> cluster_;
  std::set<std::string> keys_;
  std::vector<std::string> submitted_;
  std::uint64_t pass_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_serve_hot(Context& ctx) {
  return std::make_unique<ServeHot>(ctx);
}
std::unique_ptr<Workload> make_serve_cold(Context& ctx) {
  return std::make_unique<ServeCold>(ctx);
}

}  // namespace perfbench
