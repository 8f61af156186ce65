#!/usr/bin/env bash
# Tier-1 verify (ROADMAP.md): configure, build, and run the full ctest
# suite. Pass --tsan to run the same thing under ThreadSanitizer in a
# separate build tree (build-tsan/), which race-checks the concurrent
# service layer (svc_stress_test incl. the chaos soak, svc_fault_test,
# mp_stress_test) for real. Pass --stress to run only the `stress`-
# labelled soak suites with many more chaos rounds — the nightly lane,
# kept out of tier-1 so the default stays fast.
#
#   scripts/tier1.sh            # the ROADMAP tier-1 line, built with
#                               # -DGPAWFD_WERROR=ON (warnings fail)
#   scripts/tier1.sh --tsan     # + TSAN build of the concurrency tests
#   scripts/tier1.sh --stress   # long soak: ctest -L stress, more rounds
#   scripts/tier1.sh --persist  # crash + restart round-trip over the
#                               # persistent result store (SIGKILL the
#                               # server, restart, require 0 re-runs)
#   scripts/tier1.sh --cluster  # sharded-cluster failover: router + 3
#                               # backends, SIGKILL one mid-load, require
#                               # zero lost jobs and >= 1 failover retry
#                               # (scripts/cluster_harness.sh), then the
#                               # node-kill scenario SLO-gated through
#                               # scenario_runner
#   scripts/tier1.sh --native   # host-tuned build (-march=native) in
#                               # build-native/: the SIMD kernels compile
#                               # to AVX2/FMA and the same suite must pass
#   scripts/tier1.sh --bench-smoke  # abbreviated service + wire benches
#                               # (--smoke: completeness gates only, perf
#                               # frontier gates reported but not
#                               # enforced), emitting BENCH_svc.json and
#                               # BENCH_net.json for CI artifact upload
#   scripts/tier1.sh --scenario-smoke  # declarative workload scenarios:
#                               # run the checked-in smoke and fault-storm
#                               # scenarios through scenario_runner, SLO
#                               # assertions enforced, emitting
#                               # SCENARIO_*.json for CI artifact upload
#   scripts/tier1.sh --trajectory  # telemetry pipeline end to end: smoke
#                               # benches + scenario streamed into
#                               # telemetry-out/telemetry.gptt, a SIGKILL
#                               # mid-run must leave a decodable table,
#                               # scripts/trajectory_report renders the
#                               # series and gates it against the
#                               # committed TRAJECTORY.json — and the
#                               # gate must provably fire on an injected
#                               # 2x p99 degradation
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

run_tier1() {
  local dir="$1"; shift
  cmake -B "$dir" -S . "$@"
  cmake --build "$dir" -j "$JOBS"
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
}

if [[ "${1:-}" == "--native" ]]; then
  run_tier1 build-native -DGPAWFD_NATIVE=ON
elif [[ "${1:-}" == "--tsan" ]]; then
  # Only the concurrency-heavy suites need the (slow) TSAN pass. The net
  # loopback tests ride along: poll loop vs worker continuations vs
  # client reader is exactly the cross-thread surface TSAN is for.
  # tsan.supp silences the known uninstrumented-libstdc++ exception_ptr
  # refcount false positive (see the comment in that file).
  cmake -B build-tsan -S . -DGPAWFD_TSAN=ON
  cmake --build build-tsan -j "$JOBS" --target svc_stress_test svc_test \
    svc_fault_test worker_pool_test mp_test mp_stress_test net_test \
    cache_store_test cluster_test telemetry_test
  TSAN_OPTIONS="suppressions=$(pwd)/scripts/tsan.supp ${TSAN_OPTIONS:-}" \
    ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
    -R 'Svc|RetryPolicy|FaultPlan|WorkerPool|ThreadComm|MpStress|JobQueue|ResultCache|Loopback|Frame\.|Codec|WireStatus|CacheStore|Persister|SimServicePersist|HashRing|Router|Telemetry'
elif [[ "${1:-}" == "--stress" ]]; then
  # Nightly soak lane: only the `stress`-labelled suites, run much longer
  # (GPAWFD_CHAOS_ROUNDS multiplies the chaos soak's fault schedules).
  # cache_store_test rides along: its every-byte-offset truncation and
  # bit-flip torture loops carry the stress label too.
  cmake -B build -S .
  cmake --build build -j "$JOBS" \
    --target svc_stress_test mp_stress_test cache_store_test \
    telemetry_test scenario_soak_test
  GPAWFD_CHAOS_ROUNDS="${GPAWFD_CHAOS_ROUNDS:-20}" \
    ctest --test-dir build --output-on-failure -j "$JOBS" -L stress
elif [[ "${1:-}" == "--bench-smoke" ]]; then
  # Abbreviated bench lane: small request counts, every phase exercised,
  # JSON emitted for artifact upload. --smoke keeps the completeness
  # gates (all requests answered, faults absorbed, warm restart free)
  # but does not enforce the perf-frontier gates — a loaded CI box must
  # not fail tier-1 on a noisy throughput ratio.
  cmake -B build -S .
  cmake --build build -j "$JOBS" --target svc_service net_rpc
  ./build/bench/svc_service --smoke --json BENCH_svc.json
  ./build/bench/net_rpc --smoke --json BENCH_net.json
elif [[ "${1:-}" == "--scenario-smoke" ]]; then
  # Scenario lane: the checked-in declarative workloads, SLO-gated.
  # scenario_runner exits nonzero when any assertion fails, so this lane
  # IS the gate; the JSON reports are uploaded as CI artifacts.
  cmake -B build -S .
  cmake --build build -j "$JOBS" --target scenario_runner
  ./build/examples/scenario_runner --scenario=scenarios/smoke.json \
    --report=SCENARIO_smoke.json
  ./build/examples/scenario_runner --scenario=scenarios/fault_storm.json \
    --report=SCENARIO_fault_storm.json
elif [[ "${1:-}" == "--trajectory" ]]; then
  # Telemetry trajectory lane. Every producer layer streams into one
  # run-scoped table, then the pure-python reader (no build needed on
  # the read side) renders the per-PR series and gates it against the
  # committed baseline. The committed thresholds are deliberately
  # generous (TRAJECTORY.json carries them per metric) so a loaded
  # runner cannot flake tier-1 on wall-clock noise; --inject proves the
  # gate is live, not vacuously green.
  cmake -B build -S .
  cmake --build build -j "$JOBS" \
    --target svc_service net_rpc scenario_runner sim_server
  scripts/trajectory_report selfcheck
  RUN_ID="${GPAWFD_RUN_ID:-ci}"
  rm -rf telemetry-out telemetry-crash
  ./build/bench/svc_service --smoke --json BENCH_svc.json \
    --telemetry-dir telemetry-out --run-id "$RUN_ID"
  ./build/bench/net_rpc --smoke --json BENCH_net.json \
    --telemetry-dir telemetry-out --run-id "$RUN_ID"
  ./build/examples/scenario_runner --scenario=scenarios/smoke.json \
    --telemetry-dir=telemetry-out --run-id="$RUN_ID"
  # Crash survival: SIGKILL a serving process mid-run; the forward-scan
  # recovery must still decode every fully-flushed row (a non-empty
  # render — trajectory_report exits 1 on an empty series).
  ./build/examples/sim_server --clients=8 --requests=500 \
    --telemetry-dir=telemetry-crash --telemetry-period-ms=50 \
    --run-id="$RUN_ID-crash" >/dev/null 2>&1 &
  SRV=$!
  sleep 1
  kill -9 "$SRV" 2>/dev/null || true
  wait "$SRV" 2>/dev/null || true
  scripts/trajectory_report render telemetry-crash/telemetry.gptt
  scripts/trajectory_report render telemetry-out/telemetry.gptt \
    --json TRAJECTORY_report.json
  scripts/trajectory_report gate telemetry-out/telemetry.gptt \
    --baseline TRAJECTORY.json --allow-missing
  # The gate must FAIL on a synthetic 2x p99 regression — exit 0 here
  # would mean the lane can never catch anything.
  if scripts/trajectory_report gate telemetry-out/telemetry.gptt \
      --baseline TRAJECTORY.json --allow-missing --inject 'p99:2.0'; then
    echo "trajectory gate did not fire on injected 2x p99" >&2
    exit 1
  fi
  echo "trajectory lane OK (gate live, crash table decodable)"
elif [[ "${1:-}" == "--cluster" ]]; then
  # Cluster failover lane: the kill-one-of-three shell harness over real
  # processes, then the declarative node-kill scenario (in-process
  # cluster stack, SLO assertions enforced; the JSON report is a CI
  # artifact).
  cmake -B build -S .
  cmake --build build -j "$JOBS" \
    --target sim_server sim_client cluster_router scenario_runner
  scripts/cluster_harness.sh
  ./build/examples/scenario_runner --scenario=scenarios/node_kill.json \
    --report=SCENARIO_node_kill.json
elif [[ "${1:-}" == "--persist" ]]; then
  # Persistence round-trip: fill a store over TCP, SIGKILL the server,
  # restart it on the same directory, and require the replayed sweep to
  # execute zero simulations (see scripts/persist_roundtrip.sh).
  cmake -B build -S .
  cmake --build build -j "$JOBS" --target sim_server sim_client
  scripts/persist_roundtrip.sh
else
  # The default lane is warnings-clean and stays so: any new warning
  # fails the build.
  run_tier1 build -DGPAWFD_WERROR=ON
fi
