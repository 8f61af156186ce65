// perfbench: one command, three workloads, the whole system measured end
// to end (tracing off) or layer by layer (--trace 1). See README.md.
//
//   perfbench --workload <engine_host|serve_hot|serve_cold>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--t0 <monotonic seconds at spawn>] [--out-dir <dir>]
//             [--inject <halo_bytes|grid_point|reply_field|store_key>]
//
// The last line of stdout is the result object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <numeric>
#include <string>

#include "bench.hpp"

namespace {

using namespace perfbench;

/// Passes per run, and how many of the quietest give the end-to-end
/// values (see main).
constexpr int kPasses = 5;
constexpr int kQuiet = 3;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Kept in the order and with the units of BENCHMARK.json.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"peak_rss_mib", "MiB"},
    {"ops_per_s", "1/s"},      {"op_p50_ms", "ms"},
    {"op_p99_ms", "ms"},
};

constexpr MetricDef kPerLayer[] = {
    {"bgsim.host_s.flat_original", "s"},
    {"bgsim.host_s.flat_optimized", "s"},
    {"bgsim.host_s.hybrid_multiple", "s"},
    {"bgsim.host_s.hybrid_master_only", "s"},
    {"bgsim.msgs_per_host_s.c256", "1/s"},
    {"bgsim.msgs_per_host_s.c4096", "1/s"},
    {"bgsim.messages", "count"},
    {"bgsim.bytes", "B"},
    {"bgsim.exec_ms_p50", "ms"},
    {"sched.plan_make_ms", "ms"},
    {"core.mpts_per_s.flat_original", "Mpts/s"},
    {"core.mpts_per_s.flat_optimized", "Mpts/s"},
    {"core.mpts_per_s.hybrid_multiple", "Mpts/s"},
    {"core.mpts_per_s.hybrid_master_only", "Mpts/s"},
    {"core.compute_s.flat_original", "s"},
    {"core.compute_s.flat_optimized", "s"},
    {"core.compute_s.hybrid_multiple", "s"},
    {"core.compute_s.hybrid_master_only", "s"},
    {"core.exchange_s.flat_original", "s"},
    {"core.exchange_s.flat_optimized", "s"},
    {"core.exchange_s.hybrid_multiple", "s"},
    {"core.exchange_s.hybrid_master_only", "s"},
    {"core.halo_bytes_per_apply", "B"},
    {"stencil.mpts_per_s", "Mpts/s"},
    {"stencil.scalar_mpts_per_s", "Mpts/s"},
    {"stencil.flops_per_byte", "flop/B"},
    {"mp.halo_gb_per_s", "GB/s"},
    {"net.submit_encode_ns", "ns"},
    {"net.result_decode_ns", "ns"},
    {"net.direct_rtt_us_p50", "us"},
    {"net.frames_per_flush", "count"},
    {"cluster.hop_us_p50", "us"},
    {"cluster.fills_per_job", "count"},
    {"svc.hit_us_p50", "us"},
    {"svc.wait_ms_p50", "ms"},
    {"svc.store_append_us", "us"},
    {"proc.cpu_ms_per_kreq", "ms"},
    {"proc.ctx_switches_per_req", "count"},
    {"proc.cpu_ms_per_job", "ms"},
    {"load.late_us_p99", "us"},
    {"load.open_p99_us", "us"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
};

[[noreturn]] void usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <engine_host|serve_hot|"
               "serve_cold> --seed <n> --seconds <s> --trace <0|1>"
               " [--t0 <s>] [--out-dir <dir>] [--inject <what>]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = v;
        have_workload = true;
      } else if (flag == "--seed") {
        o.seed = std::stoull(v);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(v);
      } else if (flag == "--trace") {
        o.trace = std::stoi(v) != 0;
      } else if (flag == "--t0") {
        o.t0 = std::stod(v);
      } else if (flag == "--out-dir") {
        o.out_dir = v;
      } else if (flag == "--inject") {
        o.inject = v;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(o.seconds > 0 && o.seconds <= 600)) usage("--seconds out of range");
  return o;
}

std::unique_ptr<Workload> make(Context& ctx) {
  const std::string& w = ctx.opt.workload;
  if (w == "engine_host") return make_engine_host(ctx);
  if (w == "serve_hot") return make_serve_hot(ctx);
  if (w == "serve_cold") return make_serve_cold(ctx);
  usage(("unknown workload " + w).c_str());
}

void print_metric(bool& first, const char* name, double value,
                  const char* unit) {
  std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", first ? "" : ",",
              name, value, unit);
  first = false;
}

}  // namespace

int main(int argc, char** argv) {
  Context ctx;
  ctx.opt = parse(argc, argv);
  const Options& opt = ctx.opt;
  try {
    std::filesystem::create_directories(opt.out_dir);
    auto workload = make(ctx);
    const double setup_s = now() - process_start(opt);

    PassResult run;
    std::map<std::string, double> layers;
    if (!opt.trace) {
      // The host is a VM whose CPUs other guests share. A pass during
      // which the hypervisor ran them instead measures them, not the
      // program, so each end-to-end value is the median over the kQuiet
      // passes with the least steal. An untraced warm-up pass comes
      // first (the first pass after set-up ran slower). Every pass's
      // operations are counted and checked.
      const PassResult warm = workload->pass(opt.seconds / kPasses, false);
      run.attempted += warm.attempted;
      run.failed += warm.failed;
      std::vector<PassResult> passes;
      std::vector<double> steal;  // share of the CPUs' time
      const auto cpus = static_cast<double>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
      for (int k = 0; k < kPasses; ++k) {
        const double s0 = steal_seconds();
        const double t0 = now();
        passes.push_back(workload->pass(opt.seconds / kPasses, false));
        steal.push_back((steal_seconds() - s0) / ((now() - t0) * cpus));
        run.attempted += passes.back().attempted;
        run.failed += passes.back().failed;
      }
      std::vector<std::size_t> quiet(kPasses);
      std::iota(quiet.begin(), quiet.end(), 0);
      std::stable_sort(quiet.begin(), quiet.end(),
                       [&](std::size_t a, std::size_t b) { return steal[a] < steal[b]; });
      quiet.resize(kQuiet);
      for (const auto& [name, unused] : passes[0].e2e) {
        std::vector<double> v;
        for (std::size_t i : quiet) v.push_back(passes[i].e2e.at(name));
        run.e2e[name] = median(v);
      }
      std::cerr << "passes (steal %, ops_per_s):";
      for (int k = 0; k < kPasses; ++k)
        std::cerr << " (" << steal[k] * 100 << ", " << passes[k].e2e.at("ops_per_s") << ")";
      std::cerr << "\n";
    } else {
      // Five equal passes: an untraced warm-up, then untraced (A) and
      // traced (B) passes in the order A B B A, so that neither mode
      // always gets the colder start or the later half. The overhead is
      // the mean of the two pairs' rate ratios; the per-layer numbers
      // come from the last traced pass and the probes after it.
      const double seg = opt.seconds / kPasses;
      auto add = [&run](const PassResult& p) {
        run.attempted += p.attempted;
        run.failed += p.failed;
      };
      add(workload->pass(seg, false));
      std::vector<double> untraced, traced_rates;
      for (const bool traced : {false, true, true, false}) {
        if (traced) Tracer::enable(50000);
        PassResult p = workload->pass(seg, traced);
        Tracer::disable();
        add(p);
        (traced ? traced_rates : untraced).push_back(p.e2e.at("ops_per_s"));
        if (traced) layers = std::move(p.layers);
      }
      double ratio = 0;
      for (std::size_t k = 0; k < untraced.size(); ++k)
        ratio += untraced[k] / std::max(traced_rates[k], 1e-9);
      layers["trace.overhead_pct"] =
          (ratio / static_cast<double>(untraced.size()) - 1.0) * 100.0;
      Tracer::enable(50000);
      workload->probe(&layers);
      Tracer::disable();
      layers["trace.spans"] = static_cast<double>(Tracer::recorded());
    }
    workload->finish();
    workload.reset();

    if (opt.trace) {
      const std::string path = opt.out_dir + "/trace-" + opt.workload + "-" +
                               std::to_string(opt.seed) + ".json";
      if (!Tracer::write_chrome_json(path))
        std::cerr << "perfbench: could not write " << path << "\n";
      else
        std::cerr << "perfbench: trace written to " << path << "\n";
    }

    // Every operation is expected to succeed: a failed one (a request
    // that returned an error) makes the run incorrect.
    ctx.check.expect(run.failed == 0,
                     std::to_string(run.failed) + " operations failed");
    run.e2e["setup_s"] = setup_s;
    run.e2e["peak_rss_mib"] = peak_rss_mib();
    std::printf("{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,\"metrics\":{",
                ctx.check.ok() ? "true" : "false",
                static_cast<long long>(run.attempted),
                static_cast<long long>(run.failed));
    bool first = true;
    if (!opt.trace) {
      for (const MetricDef& m : kEndToEnd)
        print_metric(first, m.name, run.e2e.at(m.name), m.unit);
    } else {
      // Layers off this workload's path print 0 (README: metric map).
      for (const MetricDef& m : kPerLayer) {
        auto it = layers.find(m.name);
        print_metric(first, m.name, it == layers.end() ? 0.0 : it->second,
                     m.unit);
      }
    }
    std::printf("}}\n");
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
