#!/usr/bin/env sh
# Tier-1 gate: build + full test suite, in the default configuration, again
# instrumented with AddressSanitizer + UBSan, again with ThreadSanitizer
# over the concurrency-sensitive suites (worker pool + shared NetworkProgram),
# and again with -DTSCA_SIMD=OFF so the scalar fallback of the fast path is
# held to the same bit-exactness as the vectorized build.
# Run from the repo root:
#
#   ./scripts/tier1.sh            # all configurations
#   ./scripts/tier1.sh default    # just the plain build + benchmark smoke
#   ./scripts/tier1.sh sanitize   # just the asan/ubsan build
#   ./scripts/tier1.sh tsan       # just the tsan pool/program build
#   ./scripts/tier1.sh scalar     # just the TSCA_SIMD=OFF equivalence build
#   ./scripts/tier1.sh backends   # TSCA_FORCE_BACKEND equivalence matrix
#   ./scripts/tier1.sh alloc      # TSCA_COUNT_ALLOCS warm-path alloc bound
#
# Exits non-zero on the first failing build or test.
set -eu

root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
which=${1:-all}
jobs=$(nproc 2>/dev/null || echo 4)

run_config() {
  build_dir=$1
  shift
  echo "=== ${build_dir} ($*) ==="
  cmake -B "${root}/${build_dir}" -S "${root}" "$@"
  cmake --build "${root}/${build_dir}" -j "${jobs}"
  ctest --test-dir "${root}/${build_dir}" --output-on-failure -j "${jobs}"
  # Serving-scheduler smoke: quick offered-load point; its overload gate
  # (batched beats batch-1 FIFO on p99 and goodput) and mixed-priority gate
  # (the high SLO class stays insulated at 3x load over the socket path)
  # must both hold.
  echo "=== ${build_dir} bench_serve_scheduler --quick ==="
  (cd "${root}/${build_dir}" && ./bench/bench_serve_scheduler --quick)
  # Autotuner smoke: small search space + small study network; its gates
  # (frontier weakly dominates the paper variants, seeded search is
  # byte-reproducible, the slack-routed heterogeneous fleet beats the
  # homogeneous equal-budget baseline at >=2x load) must all hold.
  echo "=== ${build_dir} bench_autotune --quick ==="
  (cd "${root}/${build_dir}" &&
    ./bench/bench_autotune --quick --out /tmp/BENCH_autotune_quick.json)
}

# Repository benchmark smoke (BENCHMARK.json): builds benchmark/ against
# src/ and runs every workload in --quick form, so a src/ change that breaks
# the benchmark fails here instead of after merge.  Exit 2 is an invalid
# measurement (host noise) and only warns; exit 1 or a build failure fails.
run_benchmark_smoke() {
  echo "=== benchmark/run.sh --quick ==="
  status=0
  (cd "${root}" && bash benchmark/run.sh --quick --out build-bench-smoke) ||
    status=$?
  case "${status}" in
    0) ;;
    2) echo "tier1: WARNING: benchmark smoke measurement invalid (exit 2)" >&2 ;;
    *) echo "tier1: benchmark smoke failed (exit ${status})" >&2; exit 1 ;;
  esac
}

# ThreadSanitizer build, restricted to the suites that exercise cross-thread
# sharing: the accelerator pool, the pooled runtime, the shared
# NetworkProgram serving tests, the serving subsystem (queue, scheduler,
# server, load generator), the socket front-end (per-connection
# reader/writer threads against the admission queue, on ephemeral loopback
# ports), the stripe-parallel fast path (FastStripeWorkers fans
# conv/pool stripes out across pool workers), the multi-model
# ProgramRegistry (concurrent acquire/evict/recompile), the zoo nets
# (slot-threaded batch execution), and the autotuner (parallel candidate
# evaluation across pool workers writing generation-order slots, plus the
# fleet planner/router it feeds), and the threaded engine itself (the HLS
# primitives' thread FIFOs and barriers, and the kThread passes of the conv
# matrix and the engine-equivalence suites: 20+ kernel threads moving
# messages through ThreadFifo and publishing their counters).
# (Full-suite TSan is tier 2 — too slow.)
run_tsan() {
  build_dir=build-tsan
  echo "=== ${build_dir} (-DTSCA_SANITIZE=thread, Pool|Program|Serve|FastStripe|Net|Registry|Zoo|Tune|Fleet|Hls|ConvMatrix|EngineEquivalence tests) ==="
  cmake -B "${root}/${build_dir}" -S "${root}" -DTSCA_SANITIZE=thread
  cmake --build "${root}/${build_dir}" -j "${jobs}"
  ctest --test-dir "${root}/${build_dir}" --output-on-failure -j "${jobs}" \
    -R 'Pool|Program|Serve|FastStripe|NetProtocol|NetServe|Registry|Zoo|Tune|Fleet|Hls|ConvMatrix|EngineEquivalence'
}

# Forced-backend matrix: the equivalence suites re-run with
# TSCA_FORCE_BACKEND pinning each SIMD backend in turn — scalar and sse2
# unconditionally, avx2/avx512 when the host CPU advertises them (the forced
# selection fails hard on an unsupported host, so the matrix only asks for
# what can actually run).  Uses the default build.
run_backends() {
  build_dir=build
  cmake -B "${root}/${build_dir}" -S "${root}"
  cmake --build "${root}/${build_dir}" -j "${jobs}"
  backends="scalar sse2"
  cpuflags=$(grep -m1 '^flags' /proc/cpuinfo 2>/dev/null || echo "")
  case " ${cpuflags} " in *" avx2 "*) backends="${backends} avx2" ;; esac
  case " ${cpuflags} " in
    *" avx512f "*)
      case " ${cpuflags} " in *" avx512bw "*) backends="${backends} avx512" ;;
      esac ;;
  esac
  for be in ${backends}; do
    echo "=== ${build_dir} (TSCA_FORCE_BACKEND=${be}, equivalence suites) ==="
    TSCA_FORCE_BACKEND="${be}" \
      ctest --test-dir "${root}/${build_dir}" --output-on-failure \
      -j "${jobs}" -R 'EngineEquivalence|SimdBackends|FastStripe|NetworkE2E'
  done
}

# Allocation-counting build: operator new/delete hooked (TSCA_COUNT_ALLOCS)
# so the zero-allocation warm path is measured, not assumed.  Runs the
# warm-alloc bound test plus the compile-cache and serving suites under the
# hooked allocator (the hooks themselves must not perturb correctness).
run_alloc() {
  build_dir=build-alloc
  echo "=== ${build_dir} (-DTSCA_COUNT_ALLOCS=ON, WarmAlloc|CompileCache|Serve suites) ==="
  cmake -B "${root}/${build_dir}" -S "${root}" -DTSCA_COUNT_ALLOCS=ON
  cmake --build "${root}/${build_dir}" -j "${jobs}"
  ctest --test-dir "${root}/${build_dir}" --output-on-failure -j "${jobs}" \
    -R 'WarmAlloc|CompileCache|Serve|Registry'
}

# Scalar fast path: the SIMD wrapper compiled with its portable fallback
# (-DTSCA_SIMD=OFF), run over the suites that compare the fast path against
# the cycle engine and the int8 reference bit-for-bit.  Catches any case
# where the vector lanes and the scalar loop could disagree.
run_scalar() {
  build_dir=build-scalar
  echo "=== ${build_dir} (-DTSCA_SIMD=OFF, equivalence suites) ==="
  cmake -B "${root}/${build_dir}" -S "${root}" -DTSCA_SIMD=OFF
  cmake --build "${root}/${build_dir}" -j "${jobs}"
  ctest --test-dir "${root}/${build_dir}" --output-on-failure -j "${jobs}" \
    -R 'EngineEquivalence|PerfModelDrift|ConvMatrix|Ternary|NetworkE2E|Fastpath|Registry|Zoo'
}

case "${which}" in
  default)
    run_config build
    run_benchmark_smoke ;;
  sanitize)
    run_config build-sanitize -DTSCA_SANITIZE=address,undefined ;;
  tsan) run_tsan ;;
  scalar) run_scalar ;;
  backends) run_backends ;;
  alloc) run_alloc ;;
  all)
    run_config build
    run_benchmark_smoke
    run_config build-sanitize -DTSCA_SANITIZE=address,undefined
    run_tsan
    run_scalar
    run_backends
    run_alloc ;;
  *)
    echo "usage: $0 [default|sanitize|tsan|scalar|backends|alloc|all]" >&2
    exit 2 ;;
esac
echo "tier1: all green"
