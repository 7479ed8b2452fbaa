// Exact order statistics for the benchmark.
//
// Every percentile the benchmark reports is a nearest-rank value over the
// raw samples (no histogram buckets), and a request that missed its SLO
// enters the sample set as +inf, so a miss can only push a percentile up.
#pragma once

#include <limits>
#include <vector>

namespace bench {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

// Nearest-rank percentile, p in (0, 100]: the ceil(p/100 * n)-th smallest
// sample (1-based).  +inf samples sort last.  NaN for an empty sample set.
double nearest_rank(std::vector<double> values, double p);

// A sample stamped `t` seconds after the start of its phase.
struct Timed {
  double t = 0.0;
  double value = 0.0;
};

// A phase is cut into consecutive windows of this length; its latency
// percentiles and rates are computed per window and the phase reports the
// median across its windows.
inline constexpr double kWindowS = 1.0;

// Splits [0, duration_s) into consecutive kWindowS windows and returns each
// window's nearest-rank p (NaN for an empty window).  Samples outside the
// range are ignored.
std::vector<double> window_values(const std::vector<Timed>& samples,
                                  double duration_s, double p);

// The median (nearest rank: the lower middle of an even count) of the
// non-empty windows' values; NaN if there are none.
double window_median(const std::vector<double>& values);

// window_median(window_values(samples, duration_s, p)): a phase's p.
double phase_percentile(const std::vector<Timed>& samples, double duration_s,
                        double p);

// Per window of [0, duration_s): how many samples have a finite value, per
// second (the goodput of a latency series whose misses are +inf).
std::vector<double> window_finite_rate(const std::vector<Timed>& samples,
                                       double duration_s);

// Arithmetic mean; NaN for an empty sample set.
double mean(const std::vector<double>& values);

}  // namespace bench
