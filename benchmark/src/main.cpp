// tsca_benchmark — the repository benchmark.
//
//   tsca_benchmark --workload W [--seed S] [--trace 0|1] [--quick]
//                  [--out DIR] [--seconds 20]
//   tsca_benchmark --selftest
//
// One process runs one workload (wire_vgg, batch_vgg8, mixed_zoo,
// cycle_sim; see workloads.hpp) for kRunSeconds measured seconds, or
// kQuickSeconds with --quick.  It prints one "name value unit" line per
// metric, writes the full result (provenance, per-phase detail, ledger) to
// DIR/results/, and prints a one-line JSON object last:
//
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
//
// --trace 0 reports the end-to-end metrics.  --trace 1 runs the workload
// twice for half the seconds each, untraced then traced, reports the
// per-layer metrics from the traced run (trace_overhead_pct is the
// difference in p50_us), and writes a Chrome trace to DIR/traces/.
//
// Exit status: 0 success; 1 a failed op or an error; 2 an invalid
// measurement (generator lateness p99 above 1 ms, or fewer than 4 CPUs for
// a socket workload); 64 bad usage.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>

#include "bench.hpp"
#include "obs/chrome_trace.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace bench {
int run_selftest();

Clock::time_point process_epoch() {
  static const Clock::time_point epoch = Clock::now();
  return epoch;
}
}  // namespace bench

namespace {

using namespace bench;

int usage(const char* msg) {
  std::fprintf(stderr,
               "tsca_benchmark: %s\n"
               "usage: tsca_benchmark --workload "
               "wire_vgg|batch_vgg8|mixed_zoo|cycle_sim [--seed S] "
               "[--trace 0|1] [--quick] [--out DIR] [--seconds 20]\n"
               "       tsca_benchmark --selftest\n",
               msg);
  return 64;
}

int exit_code(const WorkloadResult& r) {
  if (r.failed > 0) return 1;
  return r.invalid.empty() ? 0 : 2;
}

// The Chrome trace of the traced run, with the per-layer metrics and the
// ledger attached under a top-level "benchmark" key.
std::string write_trace(const RunOptions& opt, const tsca::obs::Recorder& rec,
                        const WorkloadResult& r, double overhead_pct) {
  std::string json = tsca::obs::chrome_trace_json(rec);
  const std::size_t close = json.rfind('}');
  JsonWriter extra;
  extra.begin_object()
      .key("clock")
      .value("bench/ tracks are host microseconds (1 trace us = 1 host us); "
             "simulated cycles appear only as sim_cycles arguments")
      .key("metrics").raw(metrics_json(traced_metrics(r, overhead_pct)))
      .key("ledger").raw(r.ledger_json)
      .end_object();
  json.insert(close, ",\"benchmark\":" + extra.str());

  const std::filesystem::path dir =
      std::filesystem::path(opt.out_dir) / "traces";
  std::filesystem::create_directories(dir);
  const std::filesystem::path path =
      dir / (opt.workload + "-seed" + std::to_string(opt.seed) + ".json");
  std::ofstream(path) << json;
  return path.string();
}

}  // namespace

int main(int argc, char** argv) {
  process_epoch();
  RunOptions opt;
  bool traced = false, quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "--selftest") return run_selftest();
    if (a == "--quick") {
      quick = true;
      continue;
    }
    const char* v = next();
    if (v == nullptr) return usage(("missing value for " + a).c_str());
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      // Benchmark runners pass the definition's run_seconds; the length
      // itself is fixed, so any other value is a mismatch, not a setting.
      if (std::atoi(v) != kRunSeconds)
        return usage(("--seconds must be " + std::to_string(kRunSeconds) +
                      ", the benchmark's fixed run length")
                         .c_str());
    } else if (a == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
        return usage("--trace takes 0 or 1");
      traced = std::strcmp(v, "1") == 0;
    } else if (a == "--out") {
      opt.out_dir = v;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (!known_workload(opt.workload)) return usage("unknown --workload");
  if (quick) {
    opt.seconds = kQuickSeconds;
    opt.warmup_s = 0.25;
    opt.setups = 2;
  }

  try {
    if (!traced) {
      const WorkloadResult r = run_workload(opt, nullptr);
      emit_result(opt, r, false, 0.0, "");
      return exit_code(r);
    }
    RunOptions half = opt;
    half.seconds = std::max(3, opt.seconds / 2);
    const WorkloadResult base = run_workload(half, nullptr);
    tsca::obs::Recorder recorder;
    WorkloadResult r = run_workload(half, &recorder);
    const double overhead_pct = 100.0 * (r.p50_us / base.p50_us - 1.0);
    r.attempted += base.attempted;
    r.failed += base.failed;
    r.invalid.insert(r.invalid.end(), base.invalid.begin(), base.invalid.end());
    const std::string trace_path = write_trace(opt, recorder, r, overhead_pct);
    emit_result(opt, r, true, overhead_pct, trace_path);
    return exit_code(r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tsca_benchmark: %s\n", e.what());
    return 1;
  }
}
