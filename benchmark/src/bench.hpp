// Shared types of the repository benchmark (tsca_benchmark).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace bench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Trace timestamps: host microseconds since the process started measuring.
// Every span the benchmark records is on a "bench/..." track in this clock;
// simulated accelerator cycles never appear as span times.
Clock::time_point process_epoch();
inline std::uint64_t trace_us(Clock::time_point t) {
  const double us = seconds_between(process_epoch(), t) * 1e6;
  return us > 0.0 ? static_cast<std::uint64_t>(us) : 0;
}

// Measured seconds of one run, the benchmark definition's run_seconds.  It
// is the longest run for which all four workloads fit in 100 s of wall time
// together; --quick shortens it for smoke runs.
inline constexpr int kRunSeconds = 20;
inline constexpr int kQuickSeconds = 4;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = kRunSeconds;  // measured seconds of the whole workload
  double warmup_s = 1.0;      // unmeasured seconds ahead of each phase
  int setups = 9;             // cold starts timed for setup_s (median)
  std::string out_dir = "build-bench";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// One workload run: its end-to-end metrics, the per-layer metrics it
// measured (by name; NaN where the layer runs but records no host time; the
// report fills the rest with 0), the op accounting, and a JSON object with
// the per-phase detail for the result file.
struct WorkloadResult {
  std::vector<Metric> end_to_end;
  std::map<std::string, double> layer;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> invalid;  // reasons the measurement is not valid
  std::string detail_json = "{}";
  // Per measured slice of socket traffic: the load the generator actually
  // offered and how late it ran (recorded with the provenance).
  std::string generator_json = "[]";
  std::string ledger_json = "[]";
  // The workload's p50_us, kept apart so a traced and an untraced run can
  // be compared (trace_overhead_pct).
  double p50_us = 0.0;
};

}  // namespace bench
