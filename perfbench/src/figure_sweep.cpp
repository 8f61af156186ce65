// The paper's Fig. 5 right-graph sweep (32 grids of 144^3, batch 8, the
// four approaches at 256..4096 simulated cores) through
// core::simulate_job: one round of all 16 specs on each of 4 threads,
// each in its own seeded order. Host time per spec is the median over
// the threads. It runs as a probe of serve_cold's traced runs, not as a
// workload of its own: its host time follows the shared machine's slow
// periods, which last minutes, so two sets of runs did not agree (see
// README.md).
#include <algorithm>
#include <mutex>
#include <random>
#include <thread>

#include "bench.hpp"
#include "core/figures.hpp"
#include "core/result_codec.hpp"
#include "sched/plan.hpp"

namespace perfbench {
namespace {

using gpawfd::core::SimJobSpec;
using gpawfd::core::SimResult;
using gpawfd::sched::Approach;
using gpawfd::sched::Optimizations;
using gpawfd::sched::RunPlan;

constexpr int kCores[] = {256, 1024, 2048, 4096};
constexpr int kApproaches = 4;
/// Concurrent simulations (one per host core).
constexpr int kThreads = 4;
constexpr Approach kApproach[kApproaches] = {
    Approach::kFlatOriginal, Approach::kFlatOptimized,
    Approach::kHybridMultiple, Approach::kHybridMasterOnly};
constexpr const char* kSlug[kApproaches] = {
    "flat_original", "flat_optimized", "hybrid_multiple", "hybrid_master_only"};

struct Spec {
  int approach = 0;  // index into kApproach
  int cores = 0;
  SimJobSpec job;
  std::int64_t expect_bytes = 0;
  std::int64_t expect_messages = 0;
};

int ceil_div(int a, int b) { return (a + b - 1) / b; }

/// Halo messages one stream of `n` grids sends per split dimension side,
/// from the batching rule of section V (ramp-up halves the first batch).
int batches(int n, const Optimizations& o) {
  if (!o.nonblocking_tridim) return n;  // one blocking exchange per grid
  const bool ramp = o.ramp_up && o.double_buffering && o.batch_size > 1 &&
                    n >= o.batch_size;
  const int first = ramp ? o.batch_size / 2 : 0;
  return (ramp ? 1 : 0) + ceil_div(n - first, o.batch_size);
}

/// Closed-form halo traffic of a plan, computed from its process grid
/// alone: along each split dimension (p_d > 1) every grid moves
/// 2 * ghost * p_d * (product of the other two global extents) elements.
void closed_form(const RunPlan& plan, std::int64_t* bytes,
                 std::int64_t* messages) {
  const auto& job = plan.job();
  const gpawfd::Vec3 p = plan.decomp().process_grid();
  const gpawfd::Vec3 n = job.grid_shape;
  const std::int64_t pd[3] = {p.x, p.y, p.z};
  const std::int64_t nd[3] = {n.x, n.y, n.z};
  std::int64_t b = 0;
  int split = 0;
  for (int d = 0; d < 3; ++d) {
    if (pd[d] <= 1) continue;
    ++split;
    b += 2LL * job.ghost * pd[d] * nd[(d + 1) % 3] * nd[(d + 2) % 3] *
         job.elem_bytes * job.ngrids;
  }
  const int streams = plan.approach() == Approach::kHybridMultiple
                          ? plan.threads_per_rank()
                          : 1;
  std::int64_t per_rank = 0;
  for (int s = 0; s < streams; ++s) {
    const int grids = job.ngrids / streams + (s < job.ngrids % streams ? 1 : 0);
    per_rank += batches(grids, plan.opt());
  }
  *bytes = b;
  *messages = per_rank * plan.nranks() * 2 * split;
}

std::vector<Spec> figure_specs() {
  gpawfd::sched::JobConfig job;
  job.grid_shape = gpawfd::Vec3::cube(144);
  job.ngrids = 32;
  std::vector<Spec> specs;
  for (int cores : kCores) {
    for (int a = 0; a < kApproaches; ++a) {
      Spec s;
      s.approach = a;
      s.cores = cores;
      s.job.approach = kApproach[a];
      s.job.job = job;
      s.job.opt = a == 0 ? Optimizations::original() : Optimizations::all_on(8);
      s.job.total_cores = cores;
      s.job.cores_per_node = 4;
      closed_form(RunPlan::make(s.job.approach, job, s.job.opt, cores, 4),
                  &s.expect_bytes, &s.expect_messages);
      specs.push_back(s);
    }
  }
  return specs;
}

/// Closed-form halo counts, speedup at most the core count, and Flat
/// original the slowest approach at 4096 cores.
void check(Context& ctx, const std::vector<Spec>& specs,
           std::vector<SimResult> results) {
  const double seq_seconds = gpawfd::core::simulate_sequential_seconds(
      specs[0].job.job, specs[0].job.machine);
  // Self-test: one spec's byte count off by one face message.
  if (ctx.opt.inject == "halo_bytes")
    results[0].bytes_sent_total +=
        results[0].bytes_sent_total /
        std::max<std::int64_t>(1, results[0].messages_total);
  double slowest_other = 0, flat_original = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const Spec& s = specs[i];
    const SimResult& r = results[i];
    const std::string tag = std::string(kSlug[s.approach]) + "@" +
                            std::to_string(s.cores);
    ctx.check.expect(r.bytes_sent_total == s.expect_bytes,
                     "figure sweep: bytes " + tag + " = " +
                         std::to_string(r.bytes_sent_total) + ", closed form " +
                         std::to_string(s.expect_bytes));
    ctx.check.expect(r.messages_total == s.expect_messages,
                     "figure sweep: messages " + tag + " = " +
                         std::to_string(r.messages_total) + ", closed form " +
                         std::to_string(s.expect_messages));
    ctx.check.expect(r.seconds > 0 && seq_seconds / r.seconds <= s.cores,
                     "figure sweep: speedup above the core count at " + tag);
    if (s.cores == 4096) {
      if (s.approach == 0)
        flat_original = r.seconds;
      else
        slowest_other = std::max(slowest_other, r.seconds);
    }
  }
  ctx.check.expect(flat_original > slowest_other,
                   "figure sweep: Flat original is not the slowest at 4096");
}

}  // namespace

void probe_figure_sweep(Context& ctx, std::map<std::string, double>* out) {
  const std::vector<Spec> specs = figure_specs();
  const std::size_t n = specs.size();
  std::vector<std::vector<double>> host(n);
  std::vector<SimResult> first(n);
  std::vector<std::vector<std::uint8_t>> first_bits(n);
  std::mutex mu;  // guards host, first and first_bits

  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      std::mt19937_64 rng(ctx.opt.seed * 1000003ULL + static_cast<std::uint64_t>(w));
      std::vector<int> order(n);
      for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<int>(i);
      std::shuffle(order.begin(), order.end(), rng);
      Scope round("figure_sweep.round");
      for (int i : order) {
        const auto idx = static_cast<std::size_t>(i);
        SimResult r;
        const double t0 = now();
        try {
          Scope sim("bgsim.simulate_job", round.id(),
                    static_cast<std::uint64_t>(w * 100 + i + 1));
          r = gpawfd::core::simulate_job(specs[idx].job);
        } catch (const std::exception& e) {
          ctx.check.expect(false, std::string("simulate_job threw: ") + e.what());
          continue;
        }
        const double t1 = now();
        auto bits = gpawfd::core::encode_sim_result(r);
        std::lock_guard lock(mu);
        host[idx].push_back(t1 - t0);
        if (first_bits[idx].empty()) {
          first[idx] = r;
          first_bits[idx] = std::move(bits);
        } else {
          ctx.check.expect(bits == first_bits[idx],
                           "figure sweep: runs of one spec differ");
        }
      }
    });
  }
  for (auto& t : workers) t.join();
  check(ctx, specs, first);

  double host_a[kApproaches] = {};
  double msgs = 0, bytes = 0;
  double msgs_at[2] = {}, host_at[2] = {};  // 256 and 4096 cores
  for (std::size_t i = 0; i < n; ++i) {
    const Spec& s = specs[i];
    const double med = median(host[i]);
    host_a[s.approach] += med;
    msgs += static_cast<double>(first[i].messages_total);
    bytes += static_cast<double>(first[i].bytes_sent_total);
    const int at = s.cores == 256 ? 0 : s.cores == 4096 ? 1 : -1;
    if (at >= 0) {
      msgs_at[at] += static_cast<double>(first[i].messages_total);
      host_at[at] += med;
    }
  }
  for (int a = 0; a < kApproaches; ++a)
    (*out)[std::string("bgsim.host_s.") + kSlug[a]] = host_a[a];
  (*out)["bgsim.msgs_per_host_s.c256"] = msgs_at[0] / host_at[0];
  (*out)["bgsim.msgs_per_host_s.c4096"] = msgs_at[1] / host_at[1];
  (*out)["bgsim.messages"] = msgs;
  (*out)["bgsim.bytes"] = bytes;
}

}  // namespace perfbench
