// Tests for the cluster layer. Ring properties: ownership balance
// across 3-16 backends (max/mean bounded by vnode smoothing), removal
// minimality (< 2/N of keys move when a node departs, and every moved
// key was owned by the departed node), preference-list distinctness.
// Router end-to-end over real loopback backends: consistent routing
// with peer cache-fill replication, failover of a killed backend's
// keys onto the replica with zero lost jobs, the replica serving the
// dead owner's hot set from its fill-populated cache, health state
// transitions through the prober, fill relay, queue admission, and
// shutdown semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/ring.hpp"
#include "cluster/router.hpp"
#include "common/check.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "svc/job_key.hpp"
#include "svc/service.hpp"

namespace gpawfd {
namespace {

core::SimJobSpec small_spec(int ngrids = 8, int cores = 4) {
  core::SimJobSpec spec;
  spec.approach = sched::Approach::kHybridMultiple;
  spec.job.grid_shape = Vec3::cube(24);
  spec.job.ngrids = ngrids;
  spec.opt = sched::Optimizations::all_on(2);
  spec.total_cores = cores;
  spec.cores_per_node = 4;
  return spec;
}

std::vector<std::string> node_ids(int n) {
  std::vector<std::string> ids;
  for (int i = 0; i < n; ++i)
    ids.push_back("10.0.0." + std::to_string(i) + ":7450");
  return ids;
}

// ---- hash ring ---------------------------------------------------------

TEST(HashRing, OwnerIsDeterministicAndHeadsThePreferenceList) {
  const cluster::HashRing ring(node_ids(5), 64);
  const cluster::HashRing twin(node_ids(5), 64);
  for (int k = 0; k < 200; ++k) {
    const std::string key = "job-" + std::to_string(k);
    EXPECT_EQ(ring.owner(key), twin.owner(key));
    const auto prefs = ring.preference(key, 3);
    ASSERT_EQ(prefs.size(), 3u);
    EXPECT_EQ(prefs[0], ring.owner(key));
  }
}

TEST(HashRing, PreferenceListsAreDistinctAndCoverEveryNode) {
  const cluster::HashRing ring(node_ids(6), 32);
  for (int k = 0; k < 100; ++k) {
    // Asking for more replicas than nodes returns each node exactly once.
    const auto prefs =
        ring.preference("key-" + std::to_string(k), 64);
    ASSERT_EQ(prefs.size(), 6u);
    std::vector<int> sorted = prefs;
    std::sort(sorted.begin(), sorted.end());
    for (int i = 0; i < 6; ++i) EXPECT_EQ(sorted[static_cast<std::size_t>(i)], i);
  }
}

TEST(HashRing, OwnershipStaysBalancedFromThreeToSixteenNodes) {
  // Vnode smoothing bounds the arcs: over a 20k-key sample the busiest
  // node must stay within 1.6x the mean share and nobody may starve.
  for (const int n : {3, 4, 8, 16}) {
    const cluster::HashRing ring(node_ids(n), 128);
    const auto fractions = ring.ownership_fractions(20000);
    ASSERT_EQ(fractions.size(), static_cast<std::size_t>(n));
    const double mean = 1.0 / static_cast<double>(n);
    for (const double f : fractions) {
      EXPECT_LE(f, 1.6 * mean) << n << " nodes";
      EXPECT_GE(f, 0.4 * mean) << n << " nodes";
    }
  }
}

TEST(HashRing, NodeDepartureRemapsOnlyTheDepartedNodesKeys) {
  const int n = 5;
  const std::vector<std::string> all = node_ids(n);
  const std::string removed = all[3];
  std::vector<std::string> remaining;
  for (const std::string& id : all)
    if (id != removed) remaining.push_back(id);

  const cluster::HashRing before(all, 64);
  const cluster::HashRing after(remaining, 64);
  const int samples = 20000;
  int moved = 0;
  for (int k = 0; k < samples; ++k) {
    const std::string key = "remap-key-" + std::to_string(k);
    const std::string& owner_before = before.node_id(before.owner(key));
    const std::string& owner_after = after.node_id(after.owner(key));
    if (owner_before == removed) {
      ++moved;
    } else {
      // Minimality: a surviving node's keys never move.
      EXPECT_EQ(owner_before, owner_after) << key;
    }
  }
  // The departed node owned roughly 1/N of the space; consistent
  // hashing must not move more than twice that.
  EXPECT_GT(moved, 0);
  EXPECT_LT(static_cast<double>(moved) / samples, 2.0 / n);
}

TEST(HashRing, RejectsDegenerateShapes) {
  EXPECT_THROW(cluster::HashRing({}, 64), Error);
  EXPECT_THROW(cluster::HashRing(node_ids(3), 0), Error);
}

TEST(HashRing, KeyHashMatchesBetweenCallSites) {
  // The fill dedup set and the ring walk share this hash; a drift would
  // silently break dedup.
  EXPECT_EQ(cluster::HashRing::key_hash("v1|approach=2|edge=24"),
            cluster::HashRing::key_hash("v1|approach=2|edge=24"));
  EXPECT_NE(cluster::HashRing::key_hash("a"), cluster::HashRing::key_hash("b"));
}

// ---- router over real backends -----------------------------------------

struct TestBackend {
  std::unique_ptr<svc::SimService> service;
  std::unique_ptr<net::Server> server;
};

std::vector<TestBackend> make_backends(
    int n, const std::function<core::SimResult(const core::SimJobSpec&)>&
               executor = {}) {
  std::vector<TestBackend> backends;
  for (int i = 0; i < n; ++i) {
    svc::ServiceConfig cfg;
    cfg.workers = 2;
    if (executor) cfg.executor = executor;
    TestBackend b;
    b.service = std::make_unique<svc::SimService>(cfg);
    b.server = std::make_unique<net::Server>(*b.service);
    backends.push_back(std::move(b));
  }
  return backends;
}

cluster::RouterConfig router_config(const std::vector<TestBackend>& backends) {
  cluster::RouterConfig cfg;
  for (const TestBackend& b : backends)
    cfg.backends.push_back({"127.0.0.1", b.server->port(), /*ring_id=*/{}});
  cfg.retry.max_attempts = 4;
  cfg.retry.initial_backoff_seconds = 0.001;
  cfg.health_period_seconds = 0;  // tests drive probe_all() themselves
  cfg.health_fail_threshold = 1;
  return cfg;
}

/// Poll until `pred` holds or ~2s elapse (fills are fire-and-forget, so
/// assertions about their arrival need a deadline, not a sleep).
bool eventually(const std::function<bool()>& pred) {
  for (int i = 0; i < 200; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

TEST(Router, RoutesEveryJobAndReplicatesToTheNextReplica) {
  auto backends = make_backends(3);
  cluster::Router router(router_config(backends));
  net::Server front(router);
  net::ClientConfig ccfg;
  ccfg.port = front.port();
  net::Client client(ccfg);

  const int jobs = 12;
  for (int i = 0; i < jobs; ++i)
    EXPECT_NO_THROW(client.submit(small_spec(8 + i)));

  const cluster::RouterMetrics& m = router.metrics();
  EXPECT_EQ(m.jobs.load(), jobs);
  EXPECT_EQ(m.ok.load(), jobs);
  EXPECT_EQ(m.gave_up.load(), 0);
  // Every distinct key was pushed to its replica exactly once, and the
  // pushes actually landed (kFill ingested, not just sent).
  EXPECT_EQ(m.fills_sent.load(), jobs);
  EXPECT_TRUE(eventually([&] {
    std::int64_t accepted = 0;
    for (const TestBackend& b : backends)
      accepted += b.service->metrics().fills_accepted.load();
    return accepted == jobs;
  }));
  // Per-backend routed counters cover all traffic (the rebalance view).
  std::int64_t routed = 0;
  for (int b = 0; b < 3; ++b) routed += m.backend(b).routed.load();
  EXPECT_EQ(routed, m.attempts.load());
  // The work itself spread out: with 12 distinct keys on a 64-vnode
  // ring, no single backend served everything.
  std::int64_t busiest = 0;
  for (int b = 0; b < 3; ++b)
    busiest = std::max(busiest, m.backend(b).ok.load());
  EXPECT_LT(busiest, jobs);
}

TEST(Router, RepeatOfTheSameKeySuppressesDuplicateFills) {
  auto backends = make_backends(3);
  cluster::Router router(router_config(backends));
  net::Server front(router);
  net::ClientConfig ccfg;
  ccfg.port = front.port();
  net::Client client(ccfg);

  for (int rep = 0; rep < 5; ++rep) client.submit(small_spec(8));
  const cluster::RouterMetrics& m = router.metrics();
  EXPECT_EQ(m.ok.load(), 5);
  EXPECT_EQ(m.fills_sent.load(), 1);
  EXPECT_EQ(m.fills_suppressed.load(), 4);
}

TEST(Router, KilledBackendFailsOverToTheReplicaWithZeroLostJobs) {
  auto backends = make_backends(3);
  cluster::Router router(router_config(backends));
  net::Server front(router);
  net::ClientConfig ccfg;
  ccfg.port = front.port();
  net::Client client(ccfg);

  // Find a spec owned by backend 0 so the kill provably hits its owner.
  int victim_ngrids = -1;
  for (int i = 8; i < 64; ++i) {
    const std::string canonical =
        svc::JobKey::of(small_spec(i)).canonical();
    if (router.ring().owner(canonical) == 0) {
      victim_ngrids = i;
      break;
    }
  }
  ASSERT_GE(victim_ngrids, 0);

  backends[0].server->stop();  // in-flight replies drop, port dies

  // The owner is still marked alive (no prober): the first forward
  // fails kConnectionLost, marks it down, and the retry lands on the
  // replica — the client just sees a slightly slower success.
  EXPECT_NO_THROW(client.submit(small_spec(victim_ngrids)));
  const cluster::RouterMetrics& m = router.metrics();
  EXPECT_EQ(m.ok.load(), 1);
  EXPECT_EQ(m.gave_up.load(), 0);
  EXPECT_GE(m.retried.load(), 1);
  EXPECT_FALSE(router.backend_alive(0));
  EXPECT_EQ(router.alive_backends(), 2);

  // With the victim marked down, later keys it owned route straight to
  // the replica: no further retries accrue.
  const std::int64_t retried_before = m.retried.load();
  for (int i = victim_ngrids + 1; i < victim_ngrids + 40; ++i)
    EXPECT_NO_THROW(client.submit(small_spec(i)));
  EXPECT_EQ(m.retried.load(), retried_before);
  EXPECT_EQ(m.gave_up.load(), 0);
}

TEST(Router, ReplicaServesTheDeadOwnersHotSetFromItsFilledCache) {
  auto backends = make_backends(3);
  cluster::Router router(router_config(backends));
  net::Server front(router);
  net::ClientConfig ccfg;
  ccfg.port = front.port();
  net::Client client(ccfg);

  const auto spec = small_spec(8);
  const std::string canonical = svc::JobKey::of(spec).canonical();
  const auto prefs = router.ring().preference(canonical, 2);
  const std::size_t owner = static_cast<std::size_t>(prefs[0]);
  const std::size_t replica = static_cast<std::size_t>(prefs[1]);

  const core::SimResult first = client.submit(spec);
  EXPECT_EQ(backends[owner].service->metrics().executed.load(), 1);
  // The fill reaches the replica's cache without the replica executing.
  ASSERT_TRUE(eventually([&] {
    return backends[replica].service->metrics().fills_accepted.load() == 1;
  }));
  EXPECT_EQ(backends[replica].service->metrics().executed.load(), 0);

  backends[owner].server->stop();
  const core::SimResult again = client.submit(spec);
  EXPECT_DOUBLE_EQ(again.seconds, first.seconds);
  // Served from the replica's fill-populated cache: nobody re-simulated.
  EXPECT_EQ(backends[replica].service->metrics().executed.load(), 0);
  EXPECT_GE(backends[replica].service->metrics().cache_hits.load(), 1);
}

TEST(Router, ProberMarksDownAfterThresholdAndResurrectsOnSuccess) {
  auto backends = make_backends(2);
  cluster::RouterConfig cfg = router_config(backends);
  cfg.health_fail_threshold = 2;
  cluster::Router router(cfg);

  router.probe_all();
  EXPECT_TRUE(router.backend_alive(0));
  EXPECT_TRUE(router.backend_alive(1));
  EXPECT_EQ(router.metrics().probes.load(), 2);

  const std::uint16_t port = backends[1].server->port();
  backends[1].server->stop();
  router.probe_all();
  EXPECT_TRUE(router.backend_alive(1)) << "one failure is below threshold";
  router.probe_all();
  EXPECT_FALSE(router.backend_alive(1));
  EXPECT_EQ(router.metrics().marked_down.load(), 1);

  // Same port, fresh server over the same service: one good probe
  // resurrects the node — the ring never changed, so nothing reshuffles.
  net::ServerConfig scfg;
  scfg.port = port;
  net::Server revived(*backends[1].service, scfg);
  router.probe_all();
  EXPECT_TRUE(router.backend_alive(1));
  EXPECT_EQ(router.metrics().recovered.load(), 1);
}

TEST(Router, ClientPushedFillIsRelayedToTheOwner) {
  auto backends = make_backends(3);
  cluster::Router router(router_config(backends));
  net::Server front(router);
  net::ClientConfig ccfg;
  ccfg.port = front.port();
  net::Client client(ccfg);

  net::FillRecord record;
  record.key = svc::JobKey::of(small_spec(8)).canonical();
  record.result.seconds = 42.0;
  record.cost_seconds = 0.5;
  record.write_time = 1e9;
  EXPECT_NO_THROW(client.fill_async(record).get());

  EXPECT_EQ(router.metrics().fills_forwarded.load(), 1);
  const std::size_t owner = static_cast<std::size_t>(
      router.ring().preference(record.key, 1)[0]);
  EXPECT_EQ(backends[owner].service->metrics().fills_accepted.load(), 1);
}

TEST(Router, BoundedQueueShedsOverloadedWhenForwardersAreBusy) {
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  auto backends = make_backends(2, [opened](const core::SimJobSpec&) {
    opened.wait();
    return core::SimResult{};
  });
  cluster::RouterConfig cfg = router_config(backends);
  cfg.forwarders = 1;
  cfg.queue_capacity = 1;
  cluster::Router router(cfg);

  std::mutex mu;
  std::condition_variable cv;
  std::map<net::WireStatus, int> statuses;
  int settled = 0;
  auto done = [&](net::WireStatus s, std::vector<std::uint8_t>) {
    std::lock_guard lock(mu);
    ++statuses[s];
    ++settled;
    cv.notify_all();
  };

  // First task occupies the lone forwarder (parked on the gated
  // executor), second fills the one-slot queue, the rest must shed.
  router.handle_submit(svc::JobKey::of(small_spec(8)).canonical(),
                       svc::Priority::kNormal, done);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  for (int i = 0; i < 6; ++i)
    router.handle_submit(svc::JobKey::of(small_spec(9 + i)).canonical(),
                         svc::Priority::kNormal, done);
  {
    std::unique_lock lock(mu);
    cv.wait_for(lock, std::chrono::seconds(1),
                [&] { return statuses[net::WireStatus::kOverloaded] == 5; });
    EXPECT_EQ(statuses[net::WireStatus::kOverloaded], 5);
  }
  EXPECT_EQ(router.metrics().rejected_overload.load(), 5);

  gate.set_value();
  std::unique_lock lock(mu);
  ASSERT_TRUE(
      cv.wait_for(lock, std::chrono::seconds(5), [&] { return settled == 7; }));
  EXPECT_EQ(statuses[net::WireStatus::kOk], 2);
}

TEST(Router, ShutdownRejectsNewWorkAndIsIdempotent) {
  auto backends = make_backends(2);
  cluster::Router router(router_config(backends));
  router.shutdown();
  router.shutdown();  // idempotent

  net::WireStatus status = net::WireStatus::kOk;
  router.handle_submit(svc::JobKey::of(small_spec()).canonical(),
                       svc::Priority::kNormal,
                       [&](net::WireStatus s, std::vector<std::uint8_t>) {
                         status = s;
                       });
  EXPECT_EQ(status, net::WireStatus::kRejectedShutdown);
  EXPECT_EQ(router.metrics().rejected_shutdown.load(), 1);
}

TEST(Router, MetricsSnapshotCarriesRingShapeAndPerBackendRows) {
  auto backends = make_backends(3);
  cluster::Router router(router_config(backends));
  const auto counters = router.metrics().counter_map();
  EXPECT_EQ(counters.at("cluster.ring.nodes"), 3);
  EXPECT_EQ(counters.at("cluster.ring.vnodes"), 64);
  EXPECT_TRUE(counters.count("cluster.b0.routed"));
  EXPECT_TRUE(counters.count("cluster.b2.fills"));
  const std::string snapshot = router.metrics_snapshot();
  EXPECT_NE(snapshot.find("cluster.jobs: 0"), std::string::npos);
  EXPECT_NE(snapshot.find("cluster.b1.retried: 0"), std::string::npos);
}

}  // namespace
}  // namespace gpawfd
