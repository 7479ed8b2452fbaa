#include "report.hpp"

#include <sys/resource.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#include "core/simd.hpp"

#ifndef TSCA_BENCH_COMPILER
#define TSCA_BENCH_COMPILER "unknown"
#define TSCA_BENCH_FLAGS "unknown"
#define TSCA_BENCH_BUILD_TYPE "unknown"
#endif

namespace bench {

// --- JsonWriter -----------------------------------------------------------

void JsonWriter::separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!has_item_.empty()) {
    if (has_item_.back()) out_ += ',';
    has_item_.back() = true;
  }
}

JsonWriter& JsonWriter::begin_object() {
  separate();
  out_ += '{';
  has_item_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  out_ += '}';
  has_item_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  separate();
  out_ += '[';
  has_item_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  out_ += ']';
  has_item_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  separate();
  append_string(k);
  out_ += ':';
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  separate();
  out_ += number_text(v);
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  separate();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  separate();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  separate();
  append_string(v);
  return *this;
}

void JsonWriter::append_string(std::string_view v) {
  out_ += '"';
  for (const char c : v) {
    if (c == '"' || c == '\\') {
      out_ += '\\';
      out_ += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out_ += ' ';
    } else {
      out_ += c;
    }
  }
  out_ += '"';
}

JsonWriter& JsonWriter::raw(std::string_view json) {
  separate();
  out_ += json;
  return *this;
}

std::string number_text(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

// --- Metric catalogue ----------------------------------------------------

const std::vector<LayerMetricSpec>& layer_metric_catalogue() {
  static const std::vector<LayerMetricSpec> catalogue = [] {
    std::vector<LayerMetricSpec> c;
    // Serve-path metrics per slice: wire_vgg's phases, mixed_zoo's classes.
    for (const std::string s : {"lo", "hi", "over", "high", "low"})
      for (const LayerMetricSpec& m : std::vector<LayerMetricSpec>{
               {"net.wire_us.p50", "us"},
               {"net.wire_us.p99", "us"},
               {"sched.queued_us.p50", "us"},
               {"sched.queued_us.p99", "us"},
               {"sched.dispatch_us.p50", "us"},
               {"sched.batch_size.mean", "count"},
               {"sched.shed_pct", "%"},
               {"sched.rejected_pct", "%"},
               {"sched.quota_pct", "%"},
               {"gen.late_us.p99", "us"},
               {"gen.offered_rps", "1/s"},
               {"client.read_delay_us.p99", "us"}})
        c.push_back({s + "." + m.name, m.unit});
    const std::vector<LayerMetricSpec> rest{
        {"net.encode_ns", "ns"},
        {"net.decode_ns", "ns"},
        {"worker.exec_us.p50", "us"},
        {"worker.exec_us.p99", "us"},
        {"worker.exec_us_per_img", "us"},
        {"worker.busy_pct", "%"},
        {"registry.restages", "count"},
        {"registry.restages_per_1k_batches", "count"},
        {"compile.ms.vgg16", "ms"},
        {"compile.ms.vgg16_div8", "ms"},
        {"compile.ms.mobile", "ms"},
        {"compile.ms.residual", "ms"},
        {"runtime.batch_us.p50", "us"},
        {"runtime.batch_us.p99", "us"},
        {"runtime.glue_pct", "%"},
        {"conv.host_us_per_img", "us"},
        {"pool.host_us_per_img", "us"},
        {"fc.host_us_per_img", "us"},
        {"eltwise.host_us_per_img", "us"},
        {"gpool.host_us_per_img", "us"},
        {"simd.peak_gmacs", "GMAC/s"},
        {"conv.gmacs", "GMAC/s"},
        {"conv.pct_peak", "%"},
        {"conv.skip_pct", "%"},
        {"cycle.host_ns_per_sim_cycle", "ns"},
        {"cycle.host_ns_per_sim_cycle.conv", "ns"},
        {"cycle.host_ns_per_sim_cycle.pool", "ns"},
        {"cycle.weight_bubble_pct", "%"},
        {"cycle.mac_util_pct", "%"},
        {"cycle.dma_bytes_per_img", "bytes"},
        {"cycle.model_cycles_per_img", "cycles"},
        {"trace_overhead_pct", "%"},
    };
    c.insert(c.end(), rest.begin(), rest.end());
    return c;
  }();
  return catalogue;
}

// --- Provenance ------------------------------------------------------------

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos)
        return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  return "unknown";
}

// The CPU features the SIMD dispatch decides on.
std::string cpu_flags() {
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
  append(__builtin_cpu_supports("avx512vbmi"), "avx512vbmi");
  append(__builtin_cpu_supports("avx512vnni"), "avx512vnni");
#endif
  return flags;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Host, build and run provenance as a JSON object.
std::string provenance_json(const RunOptions& opt, const WorkloadResult& r,
                            bool traced) {
  const char* commit = std::getenv("TSCA_BENCH_COMMIT");
  JsonWriter j;
  j.begin_object()
      .key("workload").value(opt.workload)
      .key("seed").value(static_cast<std::int64_t>(opt.seed))
      .key("seconds").value(opt.seconds)
      .key("traced").value(traced)
      .key("host_cpus")
      .value(static_cast<std::int64_t>(std::thread::hardware_concurrency()))
      .key("cpu_model").value(cpu_model())
      .key("cpu_flags").value(cpu_flags())
      .key("simd_backend").value(tsca::core::simd::backend_name())
      .key("simd_lane_width").value(tsca::core::simd::backend().width)
      .key("compiler").value(TSCA_BENCH_COMPILER)
      .key("compiler_flags").value(TSCA_BENCH_FLAGS)
      .key("build_type").value(TSCA_BENCH_BUILD_TYPE)
      .key("git_commit")
      .value(commit != nullptr && *commit ? commit : "unknown")
      .key("generator").raw(r.generator_json)
      .end_object();
  return j.str();
}

}  // namespace

std::vector<Metric> traced_metrics(const WorkloadResult& result,
                                   double trace_overhead_pct) {
  std::vector<Metric> metrics;
  for (const LayerMetricSpec& spec : layer_metric_catalogue()) {
    double v = 0.0;  // the workload does not have this layer
    if (spec.name == "trace_overhead_pct") {
      v = trace_overhead_pct;
    } else if (const auto it = result.layer.find(spec.name);
               it != result.layer.end()) {
      v = std::isnan(it->second) ? kNotRecorded : it->second;
    }
    metrics.push_back({spec.name, v, spec.unit});
  }
  return metrics;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  JsonWriter j;
  j.begin_object();
  for (const Metric& m : metrics)
    j.key(m.name).begin_object().key("value").value(m.value).key("unit")
        .value(m.unit).end_object();
  j.end_object();
  return j.str();
}

void emit_result(const RunOptions& opt, const WorkloadResult& result,
                 bool traced, double trace_overhead_pct,
                 const std::string& trace_path) {
  std::vector<Metric> metrics;
  if (traced) {
    metrics = traced_metrics(result, trace_overhead_pct);
  } else {
    metrics = result.end_to_end;
    metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MiB"});
  }

  for (const Metric& m : metrics)
    std::printf("%s %s %s\n", m.name.c_str(), number_text(m.value).c_str(),
                m.unit.c_str());

  const std::string mj = metrics_json(metrics);

  const bool correct = result.failed == 0;
  JsonWriter file;
  file.begin_object()
      .key("valid").value(result.invalid.empty())
      .key("invalid_reasons").begin_array();
  for (const std::string& r : result.invalid) file.value(r);
  file.end_array()
      .key("correct").value(correct)
      .key("attempted").value(result.attempted)
      .key("failed").value(result.failed)
      .key("provenance").raw(provenance_json(opt, result, traced))
      .key("metrics").raw(mj)
      .key("detail").raw(result.detail_json)
      .key("ledger").raw(result.ledger_json)
      .key("trace_file").value(trace_path)
      .end_object();
  const std::filesystem::path dir =
      std::filesystem::path(opt.out_dir) / "results";
  std::filesystem::create_directories(dir);
  const std::filesystem::path path =
      dir / (opt.workload + "-seed" + std::to_string(opt.seed) +
             (traced ? "-trace" : "") + ".json");
  std::ofstream(path) << file.str() << '\n';
  std::printf("result file: %s%s\n", path.c_str(),
              result.invalid.empty() ? "" : " (valid: false)");
  for (const std::string& r : result.invalid)
    std::printf("invalid: %s\n", r.c_str());

  JsonWriter last;
  last.begin_object()
      .key("correct").value(correct)
      .key("attempted").value(result.attempted)
      .key("failed").value(result.failed)
      .key("metrics").raw(mj)
      .end_object();
  std::printf("%s\n", last.str().c_str());
  std::fflush(stdout);
}

}  // namespace bench
