#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace bench {

double nearest_rank(std::vector<double> values, double p) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  const double n = static_cast<double>(values.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

namespace {

std::size_t window_count(double duration_s) {
  return static_cast<std::size_t>(
      std::max(0.0, std::round(duration_s / kWindowS)));
}

}  // namespace

std::vector<double> window_values(const std::vector<Timed>& samples,
                                  double duration_s, double p) {
  std::vector<std::vector<double>> per_window(window_count(duration_s));
  for (const Timed& s : samples) {
    if (!(s.t >= 0.0)) continue;
    const auto w = static_cast<std::size_t>(s.t / kWindowS);
    if (w < per_window.size()) per_window[w].push_back(s.value);
  }
  std::vector<double> out;
  for (std::vector<double>& w : per_window)
    out.push_back(nearest_rank(std::move(w), p));
  return out;
}

double window_median(const std::vector<double>& values) {
  std::vector<double> present;
  for (const double v : values)
    if (!std::isnan(v)) present.push_back(v);
  return nearest_rank(std::move(present), 50);
}

double phase_percentile(const std::vector<Timed>& samples, double duration_s,
                        double p) {
  return window_median(window_values(samples, duration_s, p));
}

std::vector<double> window_finite_rate(const std::vector<Timed>& samples,
                                       double duration_s) {
  std::vector<double> rate(window_count(duration_s));
  for (const Timed& s : samples) {
    const auto w = static_cast<std::size_t>(s.t / kWindowS);
    if (s.t >= 0.0 && w < rate.size() && std::isfinite(s.value))
      rate[w] += 1.0 / kWindowS;
  }
  return rate;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

}  // namespace bench
