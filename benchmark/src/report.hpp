// Result output: a small JSON writer, run provenance, the metric catalogue,
// and the printed/recorded forms of a workload result.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "bench.hpp"

namespace bench {

// Appends compact JSON text, placing commas itself.  Numbers print in their
// shortest round-trip form; NaN and infinities print as null.
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  JsonWriter& key(std::string_view k);
  JsonWriter& value(double v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(bool v);
  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  // Splices already-serialized JSON in value position.
  JsonWriter& raw(std::string_view json);
  const std::string& str() const { return out_; }

 private:
  void separate();
  void append_string(std::string_view v);
  std::string out_;
  std::vector<bool> has_item_;
  bool after_key_ = false;
};

// Shortest round-trip decimal text of `v` ("null" when not finite).
std::string number_text(double v);

// Every per-layer metric a traced run reports, in output order, with units.
struct LayerMetricSpec {
  std::string name;
  std::string unit;
};
const std::vector<LayerMetricSpec>& layer_metric_catalogue();

// The value a per-layer metric reports when its layer runs in the workload
// but records no host time there (a NaN in WorkloadResult::layer), so
// nothing can be measured: no metric can be negative otherwise, except
// trace_overhead_pct, which is always measured.
inline constexpr double kNotRecorded = -1.0;

// The catalogue's values for a traced run: a metric of a layer the workload
// does not have reports 0, one whose layer recorded no host time reports
// kNotRecorded.
std::vector<Metric> traced_metrics(const WorkloadResult& result,
                                   double trace_overhead_pct);

// {"name": {"value": v, "unit": u}, ...}
std::string metrics_json(const std::vector<Metric>& metrics);


// Prints "name value unit" lines, writes the result file under
// <out_dir>/results, and prints the one-line result object last.  The
// metrics are the end-to-end ones, or the per-layer catalogue when traced.
void emit_result(const RunOptions& opt, const WorkloadResult& result,
                 bool traced, double trace_overhead_pct,
                 const std::string& trace_path);

}  // namespace bench
