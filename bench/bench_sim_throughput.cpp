// Host-parallel simulation throughput: serial Runtime vs AcceleratorPool.
//
// Two parallelism axes, both on the channel-scaled VGG-16 in cycle mode:
//
//   serve   — whole-network requests through a registry-mode serve::Server
//             with N workers, one image per batch (the paper's throughput
//             serving scenario); reports images/sec.
//   stripes — one image as a batch of one with small banks, so each
//             layer's stripe loop fans out over a PoolRuntime's workers
//             (median of warm passes; staging is excluded).
//   fast    — the SIMD functional fast path, three ways: (1) vs the cycle
//             engine (bit-identical logits, ≥5× p50); (2) a backend matrix —
//             warm single-worker serving under every runtime-dispatched
//             kernel backend (scalar/SSE2/AVX2/AVX-512); (3) the combined
//             configuration — widest backend + batch-major lanes + stripe-
//             parallel pool — which must beat the SSE2 single-thread
//             single-image fast path by ≥3× p50 on an AVX2-capable host.
//
// Every configuration must simulate the exact same cycles and produce the
// exact same logits as the serial runtime — workers buy wall-clock only.
// Emits BENCH_sim_throughput.json into the working directory (run it from
// the repo root; the JSON is tracked there so the perf trajectory survives
// across PRs).  With --fast, runs only the fast-path sections.
//
// Reading the serve rows: `speedup_vs_1w` below 1.0 at 2/4 workers is a
// host-capacity artifact, not simulator contention, whenever `host_cpus`
// is smaller than the worker count — the worker threads time-share the
// available cores, so extra workers only add scheduling/coordination
// overhead, and per-request `request_wall_us` p50 (each response's server
// latency, exact nearest-rank) inflates with queue depth because all 16
// images are submitted at once and each request waits for a worker.  The
// JSON records the verdict in `serve_scaling.verdict` ("host-capacity
// artifact" on starved hosts, "contention" only when >= 4 real cores fail
// to reach 2x), and the exit gate below only enforces the speedup when the
// host can express one.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <future>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/simd.hpp"

#include "core/accelerator.hpp"
#include "driver/compile_cache.hpp"
#include "driver/pool_runtime.hpp"
#include "driver/program.hpp"
#include "driver/program_registry.hpp"
#include "driver/runtime.hpp"
#include "nn/vgg16.hpp"
#include "obs/alloc_count.hpp"
#include "obs/metrics.hpp"
#include "quant/prune.hpp"
#include "quant/quantize.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"

using namespace tsca;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// One image through `runtime` as a batch of one; the pointer form stages no
// copy of the input, so timed calls measure the runtime alone.
driver::BatchNetworkRun run_one(driver::Runtime& runtime,
                                const driver::NetworkProgram& program,
                                const nn::FeatureMapI8& input) {
  const nn::FeatureMapI8* image = &input;
  return runtime.run_network_batch(program, &image, 1);
}

std::uint64_t total_cycles(const std::vector<driver::LayerRun>& layers) {
  std::uint64_t total = 0;
  for (const driver::LayerRun& layer : layers) total += layer.cycles;
  return total;
}

// Exact nearest-rank percentile (q in (0, 1]) of the measured values.
double nearest_rank(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * v.size()));
  return v[rank == 0 ? 0 : rank - 1];
}

struct Workload {
  nn::Network net;
  quant::QuantizedModel model;
  std::vector<nn::FeatureMapI8> inputs;
};

Workload make_workload(int images) {
  Rng rng(2024);
  nn::Network net = nn::build_vgg16(
      {.input_extent = 32, .channel_divisor = 8, .num_classes = 10});
  nn::WeightsF weights = nn::init_random_weights(net, rng);
  quant::prune_weights(net, weights, quant::vgg16_han_profile());
  nn::FeatureMapF calib(net.input_shape());
  for (std::size_t i = 0; i < calib.size(); ++i)
    calib.data()[i] = static_cast<float>(rng.next_gaussian() * 0.4);
  quant::QuantizedModel model = quant::quantize_network(net, weights, {calib});

  std::vector<nn::FeatureMapI8> inputs;
  for (int i = 0; i < images; ++i) {
    nn::FeatureMapI8 fm(net.input_shape());
    for (std::size_t j = 0; j < fm.size(); ++j)
      fm.data()[j] = static_cast<std::int8_t>(rng.next_int(-40, 40));
    inputs.push_back(std::move(fm));
  }
  return Workload{std::move(net), std::move(model), std::move(inputs)};
}

struct Measurement {
  int workers = 0;
  double wall_s = 0.0;
  std::uint64_t sim_cycles = 0;
  double units = 0.0;  // images (serve) or 1 (stripes)
  // Per-request server latency (Response::latency), exact nearest-rank.
  double lat_p50_us = 0.0;
  double lat_p95_us = 0.0;
  double lat_max_us = 0.0;
};

// Host CPU feature flags relevant to the dispatch decision, as one
// space-separated string.
std::string host_cpu_flags() {
  std::string flags;
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  const auto append = [&flags](bool has, const char* f) {
    if (!has) return;
    if (!flags.empty()) flags += ' ';
    flags += f;
  };
  append(__builtin_cpu_supports("sse2"), "sse2");
  append(__builtin_cpu_supports("avx2"), "avx2");
  append(__builtin_cpu_supports("avx512f"), "avx512f");
  append(__builtin_cpu_supports("avx512bw"), "avx512bw");
#endif
  return flags;
}

// One warm single-worker serve measurement under a forced kernel backend.
struct BackendRow {
  std::string name;
  int width = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

// Fast-path measurements: fast-vs-cycle, the per-backend matrix, and the
// combined (widest backend + batch-major + stripe-parallel pool) run.
struct FastSection {
  double cycle_p50_us = 0.0;
  double cycle_p99_us = 0.0;
  std::vector<BackendRow> backends;  // matrix, widest last
  std::string active;                // default dispatch choice
  int active_width = 0;
  double fast_p50_us = 0.0;  // active backend, single worker, single image
  double fast_p99_us = 0.0;
  double speedup_p50 = 0.0;  // cycle / active fast (the 5x gate)
  // Combined configuration.
  int combined_workers = 0;
  int combined_lanes = 0;          // images per batch-major lane group
  double combined_p50_us = 0.0;    // per-image, batched over all requests
  double widen_speedup_p50 = 0.0;  // sse2 single-thread / combined (3x gate)
  bool have_avx2 = false;
  bool ok = false;
};

FastSection run_fast_section(
    const Workload& w, const driver::NetworkProgram& program,
    const std::vector<std::vector<std::int8_t>>* reference) {
  FastSection f;
  const core::ArchConfig& cfg = program.config();

  const std::string entry_backend = core::simd::backend_name();
  f.ok = true;

  // Warm serving on one Runtime, every batch-of-one call timed: p50/p99 are
  // exact nearest-rank values over the `reps` passes of the request set.
  auto time_serve = [&](driver::ExecMode mode, int reps,
                        double& p50_us, double& p99_us) {
    driver::AcceleratorPool::Context ctx(cfg, 64u << 20);
    driver::Runtime runtime(ctx.acc, ctx.dram, ctx.dma, {.mode = mode});
    run_one(runtime, program, w.inputs.front());  // warm-up, stages weights
    std::vector<driver::BatchNetworkRun> runs(w.inputs.size());
    std::vector<double> call_us;
    for (int rep = 0; rep < reps; ++rep)
      for (std::size_t i = 0; i < w.inputs.size(); ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        runs[i] = run_one(runtime, program, w.inputs[i]);
        call_us.push_back(seconds_since(t0) * 1e6);
      }
    p50_us = nearest_rank(call_us, 0.50);
    p99_us = nearest_rank(call_us, 0.99);
    return runs;
  };

  const std::vector<driver::BatchNetworkRun> cycle_runs =
      time_serve(driver::ExecMode::kCycle, 2, f.cycle_p50_us, f.cycle_p99_us);
  const auto cycle_logits = [&](std::size_t i) -> const auto& {
    return cycle_runs[i].requests.front().logits;
  };
  if (reference != nullptr)
    for (std::size_t i = 0; i < cycle_runs.size(); ++i)
      if (cycle_logits(i) != (*reference)[i]) {
        std::fprintf(stderr,
                     "FAIL: fast-section cycle serve diverged on image %zu\n",
                     i);
        f.ok = false;
      }
  std::printf("  cycle    p50=%9.0f us  p99=%9.0f us\n", f.cycle_p50_us,
              f.cycle_p99_us);

  // --- backend matrix: single worker, single image, every backend --------
  double sse2_p50 = 0.0;
  for (const core::simd::SimdBackend* b : core::simd::available_backends()) {
    if (!core::simd::select_backend(b->name)) continue;
    BackendRow row;
    row.name = b->name;
    row.width = b->width;
    const std::vector<driver::BatchNetworkRun> runs =
        time_serve(driver::ExecMode::kFast, 5, row.p50_us, row.p99_us);
    for (std::size_t i = 0; i < runs.size(); ++i)
      if (runs[i].requests.front().logits != cycle_logits(i)) {
        std::fprintf(stderr, "FAIL: %s logits diverged on image %zu\n",
                     b->name, i);
        f.ok = false;
      }
    for (const driver::LayerRun& lr : runs.front().layers)
      if (lr.on_accelerator && !lr.cycles_predicted) {
        std::fprintf(stderr, "FAIL: fast layer %s lacks predicted cycles\n",
                     lr.name.c_str());
        f.ok = false;
      }
    f.backends.push_back(row);
    if (row.name == "sse2") sse2_p50 = row.p50_us;
    if (row.name == "avx2") f.have_avx2 = true;
    std::printf("  %-8s p50=%9.0f us  p99=%9.0f us  (%d lanes)\n",
                b->name, row.p50_us, row.p99_us, b->width);
  }
  core::simd::select_backend(entry_backend.c_str());
  f.active = core::simd::backend_name();
  f.active_width = core::simd::backend().width;
  for (const BackendRow& row : f.backends)
    if (row.name == f.active) {
      f.fast_p50_us = row.p50_us;
      f.fast_p99_us = row.p99_us;
    }
  f.speedup_p50 =
      f.fast_p50_us > 0.0 ? f.cycle_p50_us / f.fast_p50_us : 0.0;
  std::printf("  active backend: %s (%d lanes); fast-vs-cycle p50: %.1fx\n",
              f.active.c_str(), f.active_width, f.speedup_p50);

  // --- combined: widest backend + batch-major lanes + stripe pool --------
  const unsigned cpus = std::thread::hardware_concurrency();
  f.combined_workers =
      static_cast<int>(std::min(4u, cpus == 0 ? 1u : cpus));
  f.combined_lanes = std::min<int>(driver::Runtime::kFastBatchLanes,
                                   static_cast<int>(w.inputs.size()));
  {
    driver::AcceleratorPool::Context serial_ctx(cfg, 64u << 20);
    driver::Runtime serial_runtime(serial_ctx.acc, serial_ctx.dram,
                                   serial_ctx.dma,
                                   {.mode = driver::ExecMode::kFast});
    driver::AcceleratorPool pool(cfg, {.workers = f.combined_workers});
    driver::PoolRuntime runtime(pool, {.mode = driver::ExecMode::kFast});
    runtime.ensure_program_staged(program);
    // Paired, interleaved measurement: each rep times one sse2 single-thread
    // serve pass and one combined batch pass back to back, so clock and
    // thermal drift land on both sides of the widen ratio instead of
    // whichever block ran later.  The gate compares the two medians.
    core::simd::select_backend("sse2");
    run_one(serial_runtime, program, w.inputs.front());  // warm-up
    core::simd::select_backend(entry_backend.c_str());
    driver::BatchNetworkRun batch =
        runtime.run_network_batch(program, w.inputs);  // warm-up
    std::vector<double> serial_us;
    std::vector<double> per_image_us;
    for (int rep = 0; rep < 9; ++rep) {
      core::simd::select_backend("sse2");
      auto t0 = std::chrono::steady_clock::now();
      for (const nn::FeatureMapI8& input : w.inputs)
        run_one(serial_runtime, program, input);
      serial_us.push_back(seconds_since(t0) * 1e6 /
                          static_cast<double>(w.inputs.size()));
      core::simd::select_backend(entry_backend.c_str());
      t0 = std::chrono::steady_clock::now();
      batch = runtime.run_network_batch(program, w.inputs);
      per_image_us.push_back(seconds_since(t0) * 1e6 /
                             static_cast<double>(w.inputs.size()));
    }
    for (std::size_t i = 0; i < batch.requests.size(); ++i)
      if (batch.requests[i].logits != cycle_logits(i)) {
        std::fprintf(stderr,
                     "FAIL: combined batch logits diverged on image %zu\n", i);
        f.ok = false;
      }
    std::sort(serial_us.begin(), serial_us.end());
    std::sort(per_image_us.begin(), per_image_us.end());
    sse2_p50 = serial_us[serial_us.size() / 2];
    f.combined_p50_us = per_image_us[per_image_us.size() / 2];
  }
  f.widen_speedup_p50 =
      f.combined_p50_us > 0.0 ? sse2_p50 / f.combined_p50_us : 0.0;
  std::printf("  combined (%s, %d lanes/group, %d workers): "
              "p50=%9.0f us/img — %.1fx vs sse2 single-thread\n",
              f.active.c_str(), f.combined_lanes, f.combined_workers,
              f.combined_p50_us, f.widen_speedup_p50);
  return f;
}

void write_fast_json(FILE* out, const FastSection& f) {
  std::fprintf(out,
               "  \"fast\": {\"backend\": \"%s\", \"lane_width\": %d, "
               "\"batch_lanes\": %d, \"cpu_flags\": \"%s\",\n",
               f.active.c_str(), f.active_width, f.combined_lanes,
               host_cpu_flags().c_str());
  std::fprintf(out,
               "    \"cycle_request_us\": {\"p50\": %.1f, \"p99\": %.1f},\n",
               f.cycle_p50_us, f.cycle_p99_us);
  std::fprintf(out, "    \"backends\": [");
  for (std::size_t i = 0; i < f.backends.size(); ++i)
    std::fprintf(out,
                 "%s{\"name\": \"%s\", \"lane_width\": %d, \"p50_us\": %.1f, "
                 "\"p99_us\": %.1f}",
                 i == 0 ? "" : ", ", f.backends[i].name.c_str(),
                 f.backends[i].width, f.backends[i].p50_us,
                 f.backends[i].p99_us);
  std::fprintf(out, "],\n");
  std::fprintf(out,
               "    \"fast_request_us\": {\"p50\": %.1f, \"p99\": %.1f}, "
               "\"speedup_p50\": %.2f,\n",
               f.fast_p50_us, f.fast_p99_us, f.speedup_p50);
  std::fprintf(out,
               "    \"combined\": {\"workers\": %d, \"per_image_p50_us\": "
               "%.1f, \"speedup_vs_sse2_p50\": %.2f}}",
               f.combined_workers, f.combined_p50_us, f.widen_speedup_p50);
}

// The ≥3× widen gate applies only where the wider kernels exist to measure.
int check_widen_gate(const FastSection& f, double required) {
  if (!f.have_avx2) {
    std::printf("NOTE: host lacks AVX2; widen gate (%.0fx) not applicable\n",
                required);
    return 0;
  }
  if (f.widen_speedup_p50 < required) {
    std::fprintf(stderr,
                 "FAIL: combined fast path %.1fx vs sse2 single-thread, "
                 "below the %.0fx gate\n",
                 f.widen_speedup_p50, required);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr int kImages = 16;
  constexpr double kRequiredSpeedup = 5.0;       // fast vs cycle engine
  constexpr double kRequiredWidenSpeedup = 3.0;  // combined vs sse2 1-thread
  bool fast_only = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--fast") == 0) fast_only = true;
  const std::vector<int> kWorkers = {1, 2, 4};
  const unsigned cpus = std::thread::hardware_concurrency();
  const driver::RuntimeOptions options{.mode = driver::ExecMode::kCycle};
  const Workload w = make_workload(kImages);
  std::printf("host cpus: %u\n", cpus);
  if (cpus < 4)
    std::printf("NOTE: fewer than 4 CPUs; worker threads time-share one "
                "core, so wall-clock speedup cannot appear here.\n");
  const core::ArchConfig serve_cfg = core::ArchConfig::k256_opt();
  auto t0 = std::chrono::steady_clock::now();
  const driver::NetworkProgram program =
      driver::NetworkProgram::compile(w.net, w.model, serve_cfg);
  const double compile_ms = seconds_since(t0) * 1e3;

  if (fast_only) {
    std::printf("fast: warm serve latency, fast path vs cycle engine "
                "(1 worker, %d requests)\n",
                kImages);
    const FastSection f = run_fast_section(w, program, nullptr);
    FILE* out = std::fopen("BENCH_sim_throughput.json", "w");
    if (out == nullptr) {
      std::fprintf(stderr, "FAIL: cannot write BENCH_sim_throughput.json\n");
      return 1;
    }
    std::fprintf(out, "{\n  \"bench\": \"sim_throughput\",\n");
    std::fprintf(out, "  \"network\": \"vgg16_scaled_32px_div8\",\n");
    std::fprintf(out, "  \"images\": %d,\n", kImages);
    std::fprintf(out, "  \"host_cpus\": %u,\n", cpus);
    std::fprintf(out, "  \"sections\": [\"fast\"],\n");
    write_fast_json(out, f);
    std::fprintf(out, "\n}\n");
    std::fclose(out);
    std::printf("wrote BENCH_sim_throughput.json\n");
    if (!f.ok) return 1;
    if (f.speedup_p50 < kRequiredSpeedup) {
      std::fprintf(stderr, "FAIL: fast speedup %.1fx below %.0fx\n",
                   f.speedup_p50, kRequiredSpeedup);
      return 1;
    }
    return check_widen_gate(f, kRequiredWidenSpeedup);
  }

  // --- serve: whole-network request parallelism -------------------------
  std::printf("serve: %d scaled-VGG-16 requests, cycle mode\n", kImages);

  // The serial reference: one warm runtime executing each request as the
  // batch of one a max_batch-1 Server worker runs.
  driver::AcceleratorPool::Context serial_ctx(serve_cfg, 64u << 20);
  driver::Runtime serial(serial_ctx.acc, serial_ctx.dram, serial_ctx.dma,
                         options);
  std::vector<std::vector<std::int8_t>> reference;
  std::vector<std::uint64_t> reference_cycles;
  t0 = std::chrono::steady_clock::now();
  for (const nn::FeatureMapI8& input : w.inputs) {
    driver::BatchNetworkRun run = serial.run_network_batch(program, {input});
    reference.push_back(std::move(run.requests.front().logits));
    reference_cycles.push_back(total_cycles(run.layers));
  }
  const double serial_serve_s = seconds_since(t0);
  std::uint64_t serve_cycles = 0;
  for (const std::uint64_t c : reference_cycles) serve_cycles += c;
  std::printf("  %-10s %8.2f s %10.2f img/s %12.0f cyc/s\n", "serial",
              serial_serve_s, kImages / serial_serve_s,
              static_cast<double>(serve_cycles) / serial_serve_s);

  driver::ProgramRegistry registry(serve_cfg);
  registry.add_model("vgg", w.net, w.model);
  std::vector<Measurement> serve_rows;
  for (const int workers : kWorkers) {
    obs::MetricsRegistry metrics;
    serve::Server server(registry, "vgg",
                         {.workers = workers,
                          .batch = {.max_batch = 1},
                          .mode = driver::ExecMode::kCycle,
                          .metrics = &metrics});
    std::vector<std::future<serve::Response>> futures;
    t0 = std::chrono::steady_clock::now();
    for (const nn::FeatureMapI8& input : w.inputs)
      futures.push_back(server.submit(input));
    std::vector<double> latency_us;
    for (std::size_t i = 0; i < futures.size(); ++i) {
      const serve::Response r = futures[i].get();
      if (r.status != serve::Status::kOk || r.logits != reference[i]) {
        std::fprintf(stderr, "FAIL: serve w=%d diverged on image %zu\n",
                     workers, i);
        return 1;
      }
      latency_us.push_back(static_cast<double>(r.latency.total_us()));
    }
    const double wall = seconds_since(t0);
    const auto cycles = static_cast<std::uint64_t>(
        metrics.counter("runtime.accel_cycles").value());
    if (cycles != serve_cycles) {
      std::fprintf(stderr, "FAIL: serve w=%d simulated %llu cycles, serial "
                   "%llu\n", workers, static_cast<unsigned long long>(cycles),
                   static_cast<unsigned long long>(serve_cycles));
      return 1;
    }
    Measurement m{workers, wall, cycles, double(kImages)};
    m.lat_p50_us = nearest_rank(latency_us, 0.50);
    m.lat_p95_us = nearest_rank(latency_us, 0.95);
    m.lat_max_us = nearest_rank(latency_us, 1.0);
    serve_rows.push_back(m);
    std::printf("  workers=%-3d %8.2f s %10.2f img/s %12.0f cyc/s "
                "(req p50=%.0f us p95=%.0f us)\n",
                workers, wall, kImages / wall,
                static_cast<double>(cycles) / wall, m.lat_p50_us,
                m.lat_p95_us);
  }

  // --- stripes: intra-layer stripe parallelism --------------------------
  // One image as a batch of one: the pool still spreads its conv and
  // pad/pool stripes across the workers.  Each runtime stages the program
  // in an untimed first pass; a row is the median of kStripeReps warm
  // passes, each checked against the serial run (logits and total cycles).
  std::printf("\nstripes: one image, small banks force striped layers\n");
  core::ArchConfig stripe_cfg = core::ArchConfig::k256_opt();
  stripe_cfg.bank_words = 128;

  const driver::NetworkProgram stripe_program =
      driver::NetworkProgram::compile(w.net, w.model, stripe_cfg);
  driver::AcceleratorPool::Context stripe_ctx(stripe_cfg, 64u << 20);
  driver::Runtime stripe_serial(stripe_ctx.acc, stripe_ctx.dram,
                                stripe_ctx.dma, options);
  const driver::BatchNetworkRun stripe_ref =
      stripe_serial.run_network_batch(stripe_program, {w.inputs.front()});
  const std::uint64_t stripe_cycles = total_cycles(stripe_ref.layers);
  // Median warm wall seconds on `runtime`, or a negative value when a pass
  // diverges from the serial run.
  const auto time_stripes = [&](driver::Runtime& runtime) {
    constexpr int kStripeReps = 5;
    runtime.run_network_batch(stripe_program, {w.inputs.front()});
    std::vector<double> wall;
    for (int rep = 0; rep < kStripeReps; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      const driver::BatchNetworkRun run =
          runtime.run_network_batch(stripe_program, {w.inputs.front()});
      wall.push_back(seconds_since(start));
      if (run.requests.front().logits != stripe_ref.requests.front().logits ||
          total_cycles(run.layers) != stripe_cycles)
        return -1.0;
    }
    return nearest_rank(wall, 0.5);
  };
  const double serial_stripe_s = time_stripes(stripe_serial);
  std::printf("  %-10s %8.4f s %12.0f cyc/s\n", "serial", serial_stripe_s,
              static_cast<double>(stripe_cycles) / serial_stripe_s);

  std::vector<Measurement> stripe_rows;
  for (const int workers : kWorkers) {
    driver::AcceleratorPool pool(stripe_cfg, {.workers = workers});
    driver::PoolRuntime runtime(pool, options);
    const double wall = time_stripes(runtime);
    if (wall < 0.0) {
      std::fprintf(stderr, "FAIL: stripes w=%d diverged from serial\n",
                   workers);
      return 1;
    }
    stripe_rows.push_back({workers, wall, stripe_cycles, 1.0});
    std::printf("  workers=%-3d %8.4f s %12.0f cyc/s\n", workers, wall,
                static_cast<double>(stripe_cycles) / wall);
  }

  const double speedup4 = serve_rows.front().wall_s / serve_rows.back().wall_s;
  std::printf("\nserve speedup, 4 workers vs 1: %.2fx (deterministic: yes)\n",
              speedup4);
  // Classify sub-linear serve scaling so the tracked JSON says whether the
  // numbers mean anything: on a host with fewer cores than workers the
  // threads time-share and sub-1 speedups are expected (see file header).
  const char* serve_verdict =
      cpus >= 4 ? (speedup4 >= 2.0 ? "scales" : "contention")
                : "host-capacity artifact: fewer host cpus than workers, so "
                  "worker threads time-share cores; sub-1 speedup_vs_1w and "
                  "queue-depth-inflated request p50 are expected and do not "
                  "indicate simulator contention";
  std::printf("serve scaling verdict: %s\n", serve_verdict);

  // --- fast path vs cycle engine ----------------------------------------
  std::printf("\nfast: warm serve latency, fast path vs cycle engine "
              "(1 worker)\n");
  const FastSection fast = run_fast_section(w, program, &reference);

  // --- compile/execute split: cold vs warm serve ------------------------
  // Cold = NetworkProgram::compile + the first (image-staging-included)
  // request on a fresh runtime; warm = per-request latency (exact
  // nearest-rank over the timed calls) once the program and its weight
  // image are resident.  Warm must be strictly below cold: compilation left
  // the request path.
  std::printf("\ncompile/execute split: cold vs warm serve (1 worker)\n");
  driver::AcceleratorPool::Context warm_ctx(serve_cfg, 64u << 20);
  driver::Runtime warm_runtime(warm_ctx.acc, warm_ctx.dram, warm_ctx.dma,
                               options);
  std::vector<double> warm_ms;
  for (std::size_t i = 0; i < w.inputs.size(); ++i) {
    t0 = std::chrono::steady_clock::now();
    const driver::BatchNetworkRun run =
        warm_runtime.run_network_batch(program, {w.inputs[i]});
    warm_ms.push_back(seconds_since(t0) * 1e3);
    if (run.requests.front().logits != reference[i] ||
        total_cycles(run.layers) != reference_cycles[i]) {
      std::fprintf(stderr, "FAIL: program serve diverged on image %zu\n", i);
      return 1;
    }
  }
  const double cold_first_ms = compile_ms + warm_ms.front();
  warm_ms.erase(warm_ms.begin());  // the cold call
  const double warm_p50_ms = nearest_rank(warm_ms, 0.50);
  const double warm_p95_ms = nearest_rank(warm_ms, 0.95);
  const double warm_p99_ms = nearest_rank(warm_ms, 0.99);
  std::printf("  compile %8.2f ms\n", compile_ms);
  std::printf("  cold    %8.2f ms (compile + first request)\n", cold_first_ms);
  std::printf("  warm    %8.2f ms p50 / %8.2f ms p95 per request\n",
              warm_p50_ms, warm_p95_ms);
  if (warm_p50_ms >= cold_first_ms) {
    std::fprintf(stderr,
                 "FAIL: warm p50 (%.2f ms) not below cold first request "
                 "(%.2f ms)\n",
                 warm_p50_ms, cold_first_ms);
    return 1;
  }

  // --- persistent compile cache: cached cold start vs in-process compile --
  // A warmed CompileCache turns the compile into a deserialization.  The
  // cached artifact must be bit-exact (same DDR image, same logits) and at
  // least 5x faster to materialize than compiling in process.
  std::printf("\ncompile cache: cached cold start vs in-process compile\n");
  const std::string cache_dir = ".tsca-bench-cache";
  std::filesystem::remove_all(cache_dir);
  double cached_first_ms = 0.0;
  double cache_speedup = 0.0;
  {
    driver::CompileCache cache(cache_dir);
    const std::uint64_t cache_key =
        driver::CompileCache::key(w.net, w.model, serve_cfg);
    if (!cache.store(cache_key, program)) {
      std::fprintf(stderr, "FAIL: compile cache store failed\n");
      return 1;
    }
    t0 = std::chrono::steady_clock::now();
    std::optional<driver::NetworkProgram> cached =
        cache.load(cache_key, w.net, serve_cfg);
    cached_first_ms = seconds_since(t0) * 1e3;
    if (!cached) {
      std::fprintf(stderr, "FAIL: compile cache load missed its own store\n");
      return 1;
    }
    if (cached->ddr_image() != program.ddr_image()) {
      std::fprintf(stderr, "FAIL: cached program DDR image differs\n");
      return 1;
    }
    if (run_one(warm_runtime, *cached, w.inputs.front())
            .requests.front()
            .logits != reference.front()) {
      std::fprintf(stderr, "FAIL: cached program serve diverged\n");
      return 1;
    }
    cache_speedup = compile_ms / cached_first_ms;
    std::printf("  compile  %8.2f ms (in process)\n", compile_ms);
    std::printf("  cached   %8.2f ms (deserialize, %0.1fx faster)\n",
                cached_first_ms, cache_speedup);
  }
  std::filesystem::remove_all(cache_dir);
  if (cache_speedup < 5.0) {
    std::fprintf(stderr,
                 "FAIL: cached cold start only %.1fx faster than compiling "
                 "(need >= 5x)\n",
                 cache_speedup);
    return 1;
  }

  // --- warm-path allocations (TSCA_COUNT_ALLOCS builds only) --------------
  // Serving through the real Server with the hooked allocator: steady-state
  // requests must stay within the small documented per-request constant
  // (-1.0 in the JSON = build without the hooks, nothing measured).
  double warm_allocs_per_request = -1.0;
  if (obs::alloc_counting_enabled()) {
    serve::Server alloc_server(registry, "vgg", {.workers = 1});
    const auto serve_one = [&] {
      serve::Response r = alloc_server.submit(w.inputs.front()).get();
      if (r.status != serve::Status::kOk) std::abort();
    };
    for (int i = 0; i < 9; ++i) serve_one();  // reach steady state
    constexpr int kAllocRequests = 64;
    obs::reset_warm_alloc_stats();
    {
      const obs::WarmPathGuard guard;
      for (int i = 0; i < kAllocRequests; ++i) serve_one();
    }
    warm_allocs_per_request =
        static_cast<double>(obs::warm_alloc_stats().count) / kAllocRequests;
    std::printf("\nwarm-path allocations: %.1f per request (measured)\n",
                warm_allocs_per_request);
  }

  FILE* out = std::fopen("BENCH_sim_throughput.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "FAIL: cannot write BENCH_sim_throughput.json\n");
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"sim_throughput\",\n");
  std::fprintf(out, "  \"network\": \"vgg16_scaled_32px_div8\",\n");
  std::fprintf(out, "  \"mode\": \"cycle\",\n");
  std::fprintf(out, "  \"images\": %d,\n", kImages);
  std::fprintf(out, "  \"host_cpus\": %u,\n", cpus);
  std::fprintf(out, "  \"deterministic\": true,\n");
  std::fprintf(out, "  \"serial_serve_s\": %.4f,\n", serial_serve_s);
  std::fprintf(out, "  \"serve\": [\n");
  for (std::size_t i = 0; i < serve_rows.size(); ++i) {
    const Measurement& m = serve_rows[i];
    std::fprintf(out,
                 "    {\"workers\": %d, \"wall_s\": %.4f, "
                 "\"images_per_s\": %.3f, \"sim_cycles_per_s\": %.0f, "
                 "\"speedup_vs_1w\": %.3f, "
                 "\"request_wall_us\": {\"p50\": %.0f, \"p95\": %.0f, "
                 "\"max\": %.0f}}%s\n",
                 m.workers, m.wall_s, m.units / m.wall_s,
                 static_cast<double>(m.sim_cycles) / m.wall_s,
                 serve_rows.front().wall_s / m.wall_s,
                 m.lat_p50_us, m.lat_p95_us, m.lat_max_us,
                 i + 1 < serve_rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out,
               "  \"serve_scaling\": {\"speedup_4w_vs_1w\": %.3f, "
               "\"verdict\": \"%s\"},\n",
               speedup4, serve_verdict);
  std::fprintf(out,
               "  \"program\": {\"compile_ms\": %.3f, "
               "\"cold_first_request_ms\": %.3f, "
               "\"warm_request_ms\": {\"p50\": %.3f, \"p95\": %.3f, "
               "\"p99\": %.3f},\n",
               compile_ms, cold_first_ms, warm_p50_ms, warm_p95_ms,
               warm_p99_ms);
  std::fprintf(out,
               "    \"cache\": {\"cached_first_ms\": %.3f, "
               "\"speedup_vs_compile\": %.1f},\n"
               "    \"warm_allocs_per_request\": %.1f},\n",
               cached_first_ms, cache_speedup, warm_allocs_per_request);
  write_fast_json(out, fast);
  std::fprintf(out, ",\n");
  std::fprintf(out, "  \"serial_stripe_s\": %.4f,\n", serial_stripe_s);
  std::fprintf(out, "  \"stripes\": [\n");
  for (std::size_t i = 0; i < stripe_rows.size(); ++i) {
    const Measurement& m = stripe_rows[i];
    std::fprintf(out,
                 "    {\"workers\": %d, \"wall_s\": %.4f, "
                 "\"sim_cycles_per_s\": %.0f, \"speedup_vs_1w\": %.3f}%s\n",
                 m.workers, m.wall_s,
                 static_cast<double>(m.sim_cycles) / m.wall_s,
                 stripe_rows.front().wall_s / m.wall_s,
                 i + 1 < stripe_rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote BENCH_sim_throughput.json\n");
  if (!fast.ok) return 1;
  if (fast.speedup_p50 < kRequiredSpeedup) {
    std::fprintf(stderr, "FAIL: fast speedup %.1fx below %.0fx\n",
                 fast.speedup_p50, kRequiredSpeedup);
    return 1;
  }
  if (const int rc = check_widen_gate(fast, kRequiredWidenSpeedup); rc != 0)
    return rc;
  // Pool speedup is an environment property: it needs >= 4 cores to show up.
  // Determinism failures returned 1 above; a missing speedup on a capable
  // host is the only other failure mode.
  return (cpus < 4 || speedup4 >= 2.0) ? 0 : 2;
}
