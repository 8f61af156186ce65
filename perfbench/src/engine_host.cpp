// engine_host: the functional engine on this host. core::DistributedFd
// <double>::apply_all on mp::ThreadWorld for the four approaches at 4
// cores, 2 cores per node: flat approaches run 4 ranks, hybrid ones 2
// ranks x 2 threads, so every approach exchanges halos between ranks.
// Inputs are periodic plane waves, whose exact image under the stencil
// is a known multiple of the input.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>
#include <random>

#include "bench.hpp"
#include "core/engine.hpp"
#include "core/sim_executor.hpp"
#include "mp/thread_comm.hpp"

namespace perfbench {
namespace {

using gpawfd::Vec3;
using gpawfd::grid::Array3D;
using gpawfd::sched::Approach;
using gpawfd::sched::Optimizations;
using gpawfd::sched::RunPlan;

constexpr int kEdge = 96;
constexpr int kGrids = 4;
constexpr int kCores = 4;
constexpr int kCoresPerNode = 2;
constexpr int kBatch = 2;
constexpr int kCallsPerBlock = 4;
constexpr int kApproaches = 4;
constexpr Approach kApproach[kApproaches] = {
    Approach::kFlatOriginal, Approach::kFlatOptimized,
    Approach::kHybridMultiple, Approach::kHybridMasterOnly};
constexpr const char* kSlug[kApproaches] = {
    "flat_original", "flat_optimized", "hybrid_multiple", "hybrid_master_only"};

/// Order-independent digest of a rank's piece of a grid: each point
/// contributes a hash of (global index, value bits), so equal global
/// grids digest equally whatever the decomposition.
std::uint64_t digest(const Array3D<double>& a, Vec3 lo) {
  std::uint64_t d = 0;
  const Vec3 n = a.shape();
  for (std::int64_t x = 0; x < n.x; ++x)
    for (std::int64_t y = 0; y < n.y; ++y)
      for (std::int64_t z = 0; z < n.z; ++z) {
        std::uint64_t bits = 0;
        const double v = a.at(x, y, z);
        std::memcpy(&bits, &v, sizeof bits);
        std::uint64_t h =
            bits ^ (static_cast<std::uint64_t>(((lo.x + x) * kEdge + lo.y + y) *
                                                   kEdge + lo.z + z) *
                    0x9e3779b97f4a7c15ULL);
        h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
        h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
        d += h ^ (h >> 31);
      }
  return d;
}

/// One decomposition's worth of arrays (flat: 4 ranks, hybrid: 2).
struct Layout {
  int nranks = 0;
  std::unique_ptr<gpawfd::mp::ThreadWorld> world;
  std::vector<gpawfd::grid::Box3> boxes;                // per rank
  std::vector<std::vector<Array3D<double>>> in, out;  // [rank][grid]
};

class EngineHost final : public Workload {
 public:
  explicit EngineHost(Context& ctx)
      : ctx_(ctx), coeffs_(gpawfd::stencil::Coeffs::laplacian(2)) {
    gpawfd::sched::JobConfig job;
    job.grid_shape = Vec3::cube(kEdge);
    job.ngrids = kGrids;
    std::vector<double> plan_s;
    for (int a = 0; a < kApproaches; ++a) {
      const Optimizations o =
          a == 0 ? Optimizations::original() : Optimizations::all_on(kBatch);
      for (int rep = 0; rep < 10; ++rep) {
        const double t0 = now();
        const RunPlan p = RunPlan::make(kApproach[a], job, o, kCores, kCoresPerNode);
        plan_s.push_back(now() - t0);
        if (rep == 0) plans_.push_back(p);
      }
    }
    plan_make_ms_ = median(plan_s) * 1e3;

    // Seeded integer wave numbers per grid; the exact eigenvalue of the
    // radius-2 stencil on a periodic plane wave follows from its weights.
    std::mt19937_64 rng(ctx_.opt.seed);
    std::uniform_int_distribution<int> wave(1, 8);
    for (int g = 0; g < kGrids; ++g) {
      double theta[3];
      for (double& t : theta)
        t = 2 * std::numbers::pi * wave(rng) / kEdge;
      theta_.push_back({theta[0], theta[1], theta[2]});
      double lambda = coeffs_.center;
      for (int d = 0; d < 3; ++d)
        for (int k = 1; k <= coeffs_.radius; ++k)
          lambda += 2 * coeffs_.axis[d][k - 1] * std::cos(k * theta[d]);
      lambda_.push_back(lambda);
    }
    stencil_norm_ = std::abs(coeffs_.center);
    for (int d = 0; d < 3; ++d)
      for (int k = 0; k < coeffs_.radius; ++k)
        stencil_norm_ += 2 * std::abs(coeffs_.axis[d][k]);

    layouts_[0] = make_layout(plans_[0]);  // flat original / optimized
    layouts_[1] = make_layout(plans_[2]);  // hybrid multiple / master-only
    for (int a = 0; a < kApproaches; ++a) {
      const auto sim = gpawfd::core::simulate(
          plans_[static_cast<std::size_t>(a)],
          gpawfd::bgsim::MachineConfig::bluegene_p());
      sim_bytes_[a] = sim.bytes_sent_total;
      sim_messages_[a] = sim.messages_total;
    }
  }

  PassResult pass(double seconds, bool traced) override {
    std::mt19937_64 rng(ctx_.opt.seed * 7919ULL + pass_++);
    std::vector<double> calls[kApproaches];
    gpawfd::trace::PhaseTimers timers[kApproaches];
    std::int64_t halo_bytes[kApproaches] = {};
    std::int64_t halo_msgs[kApproaches] = {};
    std::uint64_t digests[kApproaches][kGrids] = {};
    int order[kApproaches] = {0, 1, 2, 3};
    PassResult out;

    const double start = now();
    double last_round = 0;
    for (int round = 0;; ++round) {
      if (round >= 1 && now() - start + last_round > seconds) break;
      std::shuffle(std::begin(order), std::end(order), rng);
      const double r0 = now();
      Scope round_span("engine_host.round");
      for (int a : order) {
        const bool first_block = calls[a].empty();
        run_block(a, traced ? &timers[a] : nullptr, round_span.id(), &calls[a],
                  first_block ? &halo_bytes[a] : nullptr,
                  first_block ? &halo_msgs[a] : nullptr);
        out.attempted += kCallsPerBlock;
        if (first_block) check_block(a, digests[a]);
      }
      last_round = now() - r0;
    }

    for (int a = 0; a < kApproaches; ++a) {
      ctx_.check.expect(halo_bytes[a] == sim_bytes_[a],
                        std::string("engine_host: ThreadComm halo bytes of ") +
                            kSlug[a] + " = " + std::to_string(halo_bytes[a]) +
                            ", simulator " + std::to_string(sim_bytes_[a]));
      ctx_.check.expect(halo_msgs[a] == sim_messages_[a],
                        std::string("engine_host: ThreadComm messages of ") +
                            kSlug[a] + " differ from the simulator");
      for (int g = 0; g < kGrids; ++g)
        ctx_.check.expect(digests[a][g] == digests[0][g],
                          std::string("engine_host: ") + kSlug[a] +
                              " output differs from flat_original");
    }

    std::vector<double> pooled;
    double med_sum = 0;
    double med[kApproaches];
    for (int a = 0; a < kApproaches; ++a) {
      med[a] = median(calls[a]);
      med_sum += med[a];
      pooled.insert(pooled.end(), calls[a].begin(), calls[a].end());
    }
    out.e2e["ops_per_s"] = kApproaches / med_sum;
    out.e2e["op_p50_ms"] = quantile(pooled, 0.5) * 1e3;
    out.e2e["op_p99_ms"] = quantile(pooled, 0.99) * 1e3;
    if (traced) {
      const double pts = static_cast<double>(kGrids) * kEdge * kEdge * kEdge;
      std::int64_t bytes = 0;
      for (int a = 0; a < kApproaches; ++a) {
        const double n = static_cast<double>(calls[a].size());
        out.layers[std::string("core.mpts_per_s.") + kSlug[a]] = pts / med[a] / 1e6;
        out.layers[std::string("core.compute_s.") + kSlug[a]] =
            timers[a].get("compute") / n;
        out.layers[std::string("core.exchange_s.") + kSlug[a]] =
            timers[a].get("exchange") / n;
        bytes += halo_bytes[a];
      }
      out.layers["core.halo_bytes_per_apply"] = static_cast<double>(bytes);
    }
    return out;
  }

  void probe(std::map<std::string, double>* layers) override {
    (*layers)["sched.plan_make_ms"] = plan_make_ms_;
    probe_stencil(layers);
    probe_transport(layers);
  }

 private:
  Layout make_layout(const RunPlan& plan) {
    Layout L;
    L.nranks = plan.nranks();
    L.world = std::make_unique<gpawfd::mp::ThreadWorld>(
        L.nranks, gpawfd::mp::ThreadMode::kMultiple);
    const int ghost = plan.job().ghost;
    for (int r = 0; r < L.nranks; ++r) {
      const auto box = plan.decomp().local_box(plan.coords_of_rank(r));
      L.boxes.push_back(box);
      std::vector<Array3D<double>> in, out;
      for (int g = 0; g < kGrids; ++g) {
        in.emplace_back(box.shape(), ghost);
        out.emplace_back(box.shape(), ghost);
        const auto& t = theta_[static_cast<std::size_t>(g)];
        in.back().for_each_interior([&](Vec3 p, double& v) {
          const Vec3 q = box.lo + p;
          v = std::cos(t[0] * static_cast<double>(q.x) +
                       t[1] * static_cast<double>(q.y) +
                       t[2] * static_cast<double>(q.z));
        });
      }
      L.in.push_back(std::move(in));
      L.out.push_back(std::move(out));
    }
    return L;
  }

  Layout& layout_of(int a) { return layouts_[a < 2 ? 0 : 1]; }

  /// kCallsPerBlock apply_all calls of approach `a`, each timed on rank 0
  /// from a barrier to a barrier.
  void run_block(int a, gpawfd::trace::PhaseTimers* timers,
                 std::uint64_t parent, std::vector<double>* samples,
                 std::int64_t* halo_bytes, std::int64_t* halo_msgs) {
    Layout& L = layout_of(a);
    const RunPlan& plan = plans_[static_cast<std::size_t>(a)];
    std::atomic<std::int64_t> bytes{0}, msgs{0};
    L.world->run([&](gpawfd::mp::ThreadComm& comm) {
      gpawfd::core::DistributedFd<double> engine(comm, plan, coeffs_);
      engine.set_timers(timers);
      auto& in = L.in[static_cast<std::size_t>(comm.rank())];
      auto& out = L.out[static_cast<std::size_t>(comm.rank())];
      for (int c = 0; c < kCallsPerBlock; ++c) {
        comm.barrier();
        const double t0 = now();
        const std::int64_t b0 = comm.stats().bytes_sent.load();
        const std::int64_t m0 = comm.stats().messages_sent.load();
        {
          Scope call("core.apply_all", parent,
                     static_cast<std::uint64_t>(c + 1));
          engine.apply_all(in, out);
        }
        if (c == 0) {
          bytes += comm.stats().bytes_sent.load() - b0;
          msgs += comm.stats().messages_sent.load() - m0;
        }
        comm.barrier();
        if (comm.rank() == 0) samples->push_back(now() - t0);
      }
    });
    if (halo_bytes) *halo_bytes = bytes.load();
    if (halo_msgs) *halo_msgs = msgs.load();
  }

  /// out == lambda * in on every point (1e-12 of the stencil's norm),
  /// and the per-grid digests for the cross-approach comparison.
  void check_block(int a, std::uint64_t* digests) {
    Layout& L = layout_of(a);
    if (ctx_.opt.inject == "grid_point" && a == 0) L.out[0][0].at(1, 2, 3) += 1e-9;
    const double tol = 1e-12 * stencil_norm_;
    for (int g = 0; g < kGrids; ++g) {
      const double lambda = lambda_[static_cast<std::size_t>(g)];
      double worst = 0;
      std::uint64_t d = 0;
      for (int r = 0; r < L.nranks; ++r) {
        const auto& in = L.in[static_cast<std::size_t>(r)][static_cast<std::size_t>(g)];
        const auto& o = L.out[static_cast<std::size_t>(r)][static_cast<std::size_t>(g)];
        o.for_each_interior([&](Vec3 p, const double& v) {
          worst = std::max(worst, std::abs(v - lambda * in.at(p)));
        });
        d += digest(o, L.boxes[static_cast<std::size_t>(r)].lo);
      }
      digests[g] = d;
      ctx_.check.expect(worst <= tol,
                        std::string("engine_host: ") + kSlug[a] + " grid " +
                            std::to_string(g) + " misses the plane-wave eigenvalue");
    }
  }

  /// Single-thread stencil::apply and apply_scalar on one flat local box.
  void probe_stencil(std::map<std::string, double>* out) {
    const auto& in = layouts_[0].in[0][0];
    Array3D<double> o(in.shape(), in.ghost());
    const double pts = static_cast<double>(in.shape().product());
    std::vector<double> fast, scalar;
    for (int i = 0; i < 15; ++i) {
      {
        Scope s("stencil.apply");
        const double t0 = now();
        gpawfd::stencil::apply(in, o, coeffs_);
        fast.push_back(now() - t0);
      }
      Scope s("stencil.apply_scalar");
      const double t0 = now();
      gpawfd::stencil::apply_scalar(in, o, coeffs_);
      scalar.push_back(now() - t0);
    }
    (*out)["stencil.mpts_per_s"] = pts / median(fast) / 1e6;
    (*out)["stencil.scalar_mpts_per_s"] = pts / median(scalar) / 1e6;
    // Computed, not measured: flops per point over one 8-byte read and
    // one 8-byte write per point (neighbours hit in cache).
    (*out)["stencil.flops_per_byte"] =
        static_cast<double>(gpawfd::stencil::flops_per_point(coeffs_)) / 16.0;
  }

  /// ThreadComm isend/irecv ping-pong of one batch's largest face buffer.
  void probe_transport(std::map<std::string, double>* out) {
    const RunPlan& plan = plans_[1];
    std::int64_t face = 0;
    for (int d = 0; d < 3; ++d)
      face = std::max(face, plan.face_bytes_per_grid(plan.coords_of_rank(0), d));
    const auto bytes = static_cast<std::size_t>(face * kBatch);
    constexpr int kTrips = 200;
    gpawfd::mp::ThreadWorld world(2, gpawfd::mp::ThreadMode::kMultiple);
    double seconds = 0;
    world.run([&](gpawfd::mp::ThreadComm& comm) {
      std::vector<std::byte> buf(bytes, std::byte{1});
      const int peer = 1 - comm.rank();
      comm.barrier();
      const double t0 = now();
      for (int i = 0; i < kTrips; ++i) {
        Scope s("mp.halo_trip");
        if (comm.rank() == 0) {
          auto sreq = comm.isend(buf, peer, 7);
          comm.wait(sreq);
          auto rreq = comm.irecv(buf, peer, 8);
          comm.wait(rreq);
        } else {
          auto rreq = comm.irecv(buf, peer, 7);
          comm.wait(rreq);
          auto sreq = comm.isend(buf, peer, 8);
          comm.wait(sreq);
        }
      }
      if (comm.rank() == 0) seconds = now() - t0;
    });
    (*out)["mp.halo_gb_per_s"] =
        2.0 * kTrips * static_cast<double>(bytes) / seconds / 1e9;
  }

  Context& ctx_;
  gpawfd::stencil::Coeffs coeffs_;
  std::vector<RunPlan> plans_;
  std::vector<std::array<double, 3>> theta_;
  std::vector<double> lambda_;
  double stencil_norm_ = 0;
  double plan_make_ms_ = 0;
  Layout layouts_[2];
  std::int64_t sim_bytes_[kApproaches] = {};
  std::int64_t sim_messages_[kApproaches] = {};
  std::uint64_t pass_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_engine_host(Context& ctx) {
  return std::make_unique<EngineHost>(ctx);
}

}  // namespace perfbench
