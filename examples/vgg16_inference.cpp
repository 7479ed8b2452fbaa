// End-to-end VGG-16 inference on the accelerator (scaled).
//
// The paper's full flow: a float model is pruned and quantized to 8-bit
// sign+magnitude ("Caffe" stage, here synthetic weights); pad/conv/pool run
// on the accelerator, fully-connected layers and softmax on the host ARM.
// The default channel scale (÷8) keeps the cycle-accurate run under a minute;
// pass a divisor argument to change it (1 = the real network — minutes).
//
// Usage: ./build/examples/vgg16_inference [channel_divisor] [--thread]
//            [--fast] [--pool[=N]] [--serve N] [--trace FILE] [--metrics]
//   --fast        run the SIMD functional fast path instead of a simulation
//                 engine: bit-identical outputs, cycle counts predicted by
//                 the performance model (flagged "predicted" below)
//   --pool[=N]    run layers through the PoolRuntime with N workers
//                 (default: hardware concurrency)
//   --serve N     serve N requests through the serving subsystem (queue +
//                 dynamic batching + worker threads) instead of one bare
//                 run; composes with --fast/--thread (execution mode),
//                 --pool (worker count), --trace and --metrics
//   --listen[=P]  serve over TCP on 127.0.0.1:P (default: an ephemeral
//                 port, printed once bound) until stdin reaches EOF —
//                 the wire protocol of serve/protocol.hpp; NetClient or
//                 serve::run_load drive it from another process.  Same
//                 composition as --serve, with which it conflicts
//   --trace FILE  write a Chrome trace_event JSON (chrome://tracing,
//                 Perfetto) of the run to FILE
//   --metrics     dump the metrics registry (counters + latency
//                 histograms) after the run
//
// Every flag composes with every other; conflicting or unknown flags are an
// error, not a silent override (picking exactly one execution engine is the
// only exclusivity: --thread vs --fast).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <thread>
#include <vector>

#include "core/accelerator.hpp"
#include "core/simd.hpp"
#include "driver/accelerator_pool.hpp"
#include "driver/pool_runtime.hpp"
#include "driver/program_registry.hpp"
#include "driver/runtime.hpp"
#include "nn/vgg16.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "quant/prune.hpp"
#include "quant/quantize.hpp"
#include "serve/load_generator.hpp"
#include "serve/net_server.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"

using namespace tsca;

namespace {

[[noreturn]] void usage_error(const char* msg, const char* arg) {
  std::fprintf(stderr, "error: %s%s%s\n", msg, arg != nullptr ? ": " : "",
               arg != nullptr ? arg : "");
  std::fprintf(stderr,
               "usage: vgg16_inference [channel_divisor] [--thread|--fast] "
               "[--pool[=N]] [--serve N] [--listen[=PORT]] [--trace FILE] "
               "[--metrics]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  int divisor = 8;
  bool divisor_set = false;
  driver::ExecMode mode = driver::ExecMode::kCycle;
  bool mode_set = false;
  int pool_workers = 0;  // 0 = serial Runtime
  int serve_requests = 0;  // 0 = single inference, no server
  bool listen = false;
  std::uint16_t listen_port = 0;  // 0 = ephemeral
  const char* trace_path = nullptr;
  bool dump_metrics = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--thread") == 0 ||
        std::strcmp(argv[i], "--fast") == 0) {
      const driver::ExecMode wanted = std::strcmp(argv[i], "--fast") == 0
                                          ? driver::ExecMode::kFast
                                          : driver::ExecMode::kThread;
      if (mode_set && mode != wanted)
        usage_error("--thread and --fast are mutually exclusive", nullptr);
      mode = wanted;
      mode_set = true;
    } else if (std::strcmp(argv[i], "--pool") == 0) {
      pool_workers = static_cast<int>(std::thread::hardware_concurrency());
      if (pool_workers < 1) pool_workers = 2;
    } else if (std::strncmp(argv[i], "--pool=", 7) == 0) {
      pool_workers = std::atoi(argv[i] + 7);
      if (pool_workers < 1)
        usage_error("--pool=N needs a positive worker count", argv[i]);
    } else if (std::strcmp(argv[i], "--serve") == 0 && i + 1 < argc) {
      serve_requests = std::atoi(argv[++i]);
      if (serve_requests < 1)
        usage_error("--serve N needs a positive request count", argv[i]);
    } else if (std::strcmp(argv[i], "--listen") == 0) {
      listen = true;
    } else if (std::strncmp(argv[i], "--listen=", 9) == 0) {
      listen = true;
      const int port = std::atoi(argv[i] + 9);
      if (port < 0 || port > 65535)
        usage_error("--listen=PORT needs a port in [0, 65535]", argv[i]);
      listen_port = static_cast<std::uint16_t>(port);
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      dump_metrics = true;
    } else if (argv[i][0] == '-') {
      // An unrecognized flag used to fall through to atoi() and silently
      // reconfigure the network size; make it a hard error instead.
      usage_error("unknown flag", argv[i]);
    } else {
      if (divisor_set) usage_error("more than one channel divisor", argv[i]);
      divisor = std::atoi(argv[i]);
      if (divisor < 1)
        usage_error("channel divisor must be a positive integer", argv[i]);
      divisor_set = true;
    }
  }
  if (listen && serve_requests > 0)
    usage_error("--serve and --listen are mutually exclusive", nullptr);

  Rng rng(2017);
  const nn::Network net = nn::build_vgg16(
      {.input_extent = 64, .channel_divisor = divisor, .num_classes = 10});
  std::printf("VGG-16 (64x64 input, channels /%d), %zu layers\n", divisor,
              net.layers().size());

  // "Training": synthetic weights, pruned to the Han et al. profile.
  nn::WeightsF weights = nn::init_random_weights(net, rng);
  const std::vector<double> densities =
      quant::prune_weights(net, weights, quant::vgg16_han_profile());
  std::printf("pruned conv densities: ");
  for (double d : densities) std::printf("%.0f%% ", 100 * d);
  std::printf("\n");

  // Calibration + quantization on a synthetic image.
  nn::FeatureMapF image(net.input_shape());
  for (std::size_t i = 0; i < image.size(); ++i)
    image.data()[i] = static_cast<float>(rng.next_gaussian() * 0.5);
  const quant::QuantizedModel model =
      quant::quantize_network(net, weights, {image});
  const nn::FeatureMapI8 input = quant::quantize_fm(image, model.input_exp);

  // Run on the accelerator — serial Runtime, or PoolRuntime with --pool.
  obs::Recorder recorder;
  obs::MetricsRegistry metrics;
  driver::RuntimeOptions options{.mode = mode};
  if (trace_path != nullptr) options.trace = &recorder;
  if (dump_metrics) options.metrics = &metrics;

  const core::ArchConfig cfg = core::ArchConfig::k256_opt();
  core::Accelerator accelerator(cfg);
  sim::Dram dram(256u << 20);
  sim::DmaEngine dma(dram);

  // Compile once (quantization packing, plans, DDR weight image), then
  // execute the immutable program — the paper's host-prepares / driver-fires
  // split.  The registry holds it; the serving modes reuse it per request.
  driver::ProgramRegistry registry(cfg);
  registry.add_model("vgg16", net, model);
  const auto tc = std::chrono::steady_clock::now();
  const driver::ProgramHandle handle = registry.acquire("vgg16");
  const driver::NetworkProgram& program = handle.program();
  const double compile_s = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - tc)
                               .count();
  std::printf("compiled program: %zu steps, %.1f KiB weight image (%.1f ms)\n",
              program.steps().size(),
              static_cast<double>(program.ddr_image().size()) / 1024.0,
              compile_s * 1e3);

  if (listen) {
    // Socket serving mode: the compiled program behind the full serving
    // pipeline, fronted by the TCP wire protocol.  Runs until stdin closes
    // (Ctrl-D, or the parent process closing the pipe) — the shape a
    // supervisor expects from a foreground service.
    serve::ServerOptions sopts;
    sopts.workers = pool_workers > 0 ? pool_workers : 1;
    sopts.mode = mode;
    if (trace_path != nullptr) sopts.trace = &recorder;
    if (dump_metrics) sopts.metrics = &metrics;
    serve::Server server(registry, "vgg16", sopts);
    serve::NetServer net(server, {.port = listen_port});
    std::printf("listening on 127.0.0.1:%u  (%d worker%s, %s mode, "
                "max batch %d) — EOF on stdin stops\n",
                net.port(), sopts.workers, sopts.workers == 1 ? "" : "s",
                driver::exec_mode_name(mode), sopts.batch.max_batch);
    std::fflush(stdout);
    int ch;
    while ((ch = std::getchar()) != EOF) {
    }
    net.stop();
    server.stop();
    std::printf(
        "served: %lld completed, %lld deadline-missed, %lld rejected\n",
        static_cast<long long>(
            server.metrics().counter("serve.completed").value()),
        static_cast<long long>(
            server.metrics().counter("serve.deadline_missed").value()),
        static_cast<long long>(
            server.metrics().counter("serve.rejected_queue_full").value()));
    if (trace_path != nullptr) {
      std::ofstream out(trace_path);
      if (!out) {
        std::fprintf(stderr, "cannot open %s for writing\n", trace_path);
        return 1;
      }
      obs::write_chrome_trace(recorder, out);
      std::printf("wrote %zu trace events to %s\n", recorder.event_count(),
                  trace_path);
    }
    if (dump_metrics) std::printf("\nmetrics:\n%s", metrics.text().c_str());
    return 0;
  }

  if (serve_requests > 0) {
    // Serving mode: the compiled program behind a queue + dynamic batching +
    // worker threads, driven by a deterministic closed-loop load.
    serve::ServerOptions sopts;
    sopts.workers = pool_workers > 0 ? pool_workers : 1;
    sopts.mode = mode;
    if (trace_path != nullptr) sopts.trace = &recorder;
    if (dump_metrics) sopts.metrics = &metrics;
    serve::Server server(registry, "vgg16", sopts);
    std::printf("serving %d requests: %d worker%s, %s mode, max batch %d\n",
                serve_requests, sopts.workers, sopts.workers == 1 ? "" : "s",
                driver::exec_mode_name(mode), sopts.batch.max_batch);

    serve::LoadOptions load;
    load.requests = serve_requests;
    load.concurrency = 2 * sopts.workers;
    load.seed = 2017;
    const serve::LoadReport report = serve::run_load(server, load);
    server.stop();

    std::printf("  ok %d  rejected %d  deadline-missed %d  cancelled %d\n",
                report.ok, report.rejected, report.deadline_missed,
                report.cancelled);
    std::printf("  latency p50=%lld us  p90=%lld us  p99=%lld us  "
                "(max batch %d)\n",
                static_cast<long long>(report.latency_us.p50),
                static_cast<long long>(report.latency_us.p90),
                static_cast<long long>(report.latency_us.p99),
                report.max_batch_seen);
    std::printf("  goodput %.1f req/s over %.2f s\n", report.goodput_rps,
                static_cast<double>(report.wall_us) * 1e-6);

    if (trace_path != nullptr) {
      std::ofstream out(trace_path);
      if (!out) {
        std::fprintf(stderr, "cannot open %s for writing\n", trace_path);
        return 1;
      }
      obs::write_chrome_trace(recorder, out);
      std::printf("wrote %zu trace events to %s\n", recorder.event_count(),
                  trace_path);
    }
    if (dump_metrics) std::printf("\nmetrics:\n%s", metrics.text().c_str());
    return 0;
  }

  // One image is a batch of one.
  driver::BatchNetworkRun run;
  const auto t0 = std::chrono::steady_clock::now();
  if (pool_workers > 0) {
    std::printf("pool runtime: %d workers\n", pool_workers);
    driver::AcceleratorPool pool(cfg, {.workers = pool_workers});
    driver::PoolRuntime runtime(pool, options);
    run = runtime.run_network_batch(program, {input});
  } else {
    driver::Runtime runtime(accelerator, dram, dma, options);
    run = runtime.run_network_batch(program, {input});
  }
  const auto elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();

  const bool fast_mode = mode == driver::ExecMode::kFast;
  if (fast_mode)
    std::printf("\nSIMD backend: %s (%d int8 lanes per vector op)\n",
                core::simd::backend_name(), core::simd::backend().width);

  std::uint64_t total_cycles = 0;
  bool any_predicted = false;
  std::printf("\n%-10s %6s %9s %12s %14s%s\n", "layer", "kind", "stripes",
              "cycles", "MACs", fast_mode ? "   skip%" : "");
  for (const driver::LayerRun& lr : run.layers) {
    if (!lr.on_accelerator) continue;
    total_cycles += lr.cycles;
    any_predicted = any_predicted || lr.cycles_predicted;
    std::printf("%-10s %6s %9d %12llu%s %13lld", lr.name.c_str(),
                nn::layer_kind_name(lr.kind), lr.stripes,
                static_cast<unsigned long long>(lr.cycles),
                lr.cycles_predicted ? "*" : " ",
                static_cast<long long>(lr.macs));
    if (fast_mode) {
      // Activation-sparsity skip: share of MAC tile-ops the host fast path
      // elided because the gathered region was all zero (conv layers only).
      const std::uint64_t tiles = lr.fast.mac_tiles + lr.fast.mac_tiles_skipped;
      if (tiles > 0)
        std::printf("   %5.1f",
                    100.0 * static_cast<double>(lr.fast.mac_tiles_skipped) /
                        static_cast<double>(tiles));
      else
        std::printf("   %5s", "-");
    }
    std::printf("\n");
  }
  if (any_predicted)
    std::printf("(* cycles predicted by the performance model — the fast "
                "path runs no simulation; skip%% = host MAC tile-ops elided "
                "by the activation zero-skip)\n");
  const double mhz = cfg.clock_mhz;
  std::printf("\naccelerator total: %llu cycles = %.2f ms at %.0f MHz "
              "(simulated in %.1f s, %s mode)\n",
              static_cast<unsigned long long>(total_cycles),
              static_cast<double>(total_cycles) / (mhz * 1e3), mhz, elapsed,
              driver::exec_mode_name(mode));

  // Host-side classifier result.
  const driver::NetworkRun& result = run.requests.front();
  if (result.flat_output) {
    int best = 0;
    for (std::size_t i = 1; i < result.logits.size(); ++i)
      if (result.logits[i] > result.logits[static_cast<std::size_t>(best)])
        best = static_cast<int>(i);
    std::printf("predicted class: %d (logit %d)\n", best,
                result.logits[static_cast<std::size_t>(best)]);
  }

  if (trace_path != nullptr) {
    std::ofstream out(trace_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n", trace_path);
      return 1;
    }
    obs::write_chrome_trace(recorder, out);
    std::printf("wrote %zu trace events to %s (open in chrome://tracing "
                "or https://ui.perfetto.dev)\n",
                recorder.event_count(), trace_path);
  }
  if (dump_metrics) {
    std::printf("\nmetrics:\n%s", metrics.text().c_str());
  }
  return 0;
}
