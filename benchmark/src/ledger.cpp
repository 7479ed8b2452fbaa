#include "ledger.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/simd.hpp"
#include "stats.hpp"

namespace bench {

namespace {

using namespace tsca;
using nn::LayerKind;

// Host-time bucket of a layer kind (flatten/softmax fall in "other").
const char* host_kind(LayerKind k) {
  switch (k) {
    case LayerKind::kConv:
      return "conv";
    case LayerKind::kPad:
    case LayerKind::kMaxPool:
      return "pool";
    case LayerKind::kFullyConnected:
      return "fc";
    case LayerKind::kEltwiseAdd:
      return "eltwise";
    case LayerKind::kGlobalPool:
      return "gpool";
    default:
      return "other";
  }
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// num / den; 0 for an empty denominator, NaN when either side is unknown.
double ratio(double num, double den) {
  if (std::isnan(num) || std::isnan(den)) return kNaN;
  return den > 0.0 ? num / den : 0.0;
}

// Keeps the calibration kernels' results observable so no call is elided.
volatile std::int64_t calibration_sink = 0;

}  // namespace

Ledger::Ledger(const Model& model, driver::ExecMode mode,
               const driver::NetworkProgram& program)
    : model_(model),
      mode_(mode),
      group_(program.config().group),
      macs_per_cycle_(program.config().macs_per_cycle()),
      rows_(model.net.layers().size()),
      fused_(model.net.layers().size(), false) {
  for (const driver::NetworkProgram::Step& s : program.steps())
    if (s.exec == driver::NetworkProgram::Step::Exec::kFusedPadConv) {
      fused_[s.layer] = true;
      fused_[s.layer + 1] = true;
    }
}

void Ledger::add(const driver::BatchNetworkRun& run, double call_us,
                 int images) {
  TSCA_CHECK(run.layers.size() == rows_.size(), "layer records misaligned");
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const driver::LayerRun& lr = run.layers[i];
    Row& r = rows_[i];
    r.host_us += lr.host_wall_us;
    r.host_us_per_call.push_back(static_cast<double>(lr.host_wall_us));
    r.cycles += lr.cycles;
    r.macs += lr.macs;
    r.counters += lr.counters;
    r.dma_bytes += lr.dma.bytes_to_fpga + lr.dma.bytes_to_dram;
    r.fast += lr.fast;
  }
  call_us_.push_back(call_us);
  total_call_us_ += call_us;
  ++calls_;
  images_ += images;
}

void Ledger::set_predictions(const driver::BatchNetworkRun& fast_run) {
  TSCA_CHECK(fast_run.layers.size() == rows_.size(),
             "layer records misaligned");
  for (std::size_t i = 0; i < rows_.size(); ++i)
    rows_[i].predicted_cycles = fast_run.layers[i].cycles;
}

bool Ledger::recorded(std::size_t i) const {
  return !(mode_ == driver::ExecMode::kCycle && fused_[i]);
}

void Ledger::write_rows(JsonWriter& out, double peak_gmacs) const {
  const std::vector<nn::LayerShape> shapes = model_.net.infer_shapes();
  const double images = static_cast<double>(std::max<std::int64_t>(images_, 1));
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const Row& r = rows_[i];
    const nn::LayerSpec& spec = model_.net.layers()[i];
    const nn::LayerShape& sh = shapes[i];
    // Unknown host time is NaN, and so is every column built on it; the
    // JSON shows them as null.
    const double host = recorded(i) ? static_cast<double>(r.host_us) : kNaN;
    const double gmacs = ratio(static_cast<double>(r.macs), host * 1e3);
    const double tiles =
        static_cast<double>(r.fast.mac_tiles + r.fast.mac_tiles_skipped);
    const double perf_model_cycles =
        mode_ == driver::ExecMode::kCycle
            ? static_cast<double>(r.predicted_cycles)
            : static_cast<double>(r.cycles) / images;
    out.begin_object()
        .key("model").value(model_.id)
        .key("layer").value(spec.name)
        .key("kind").value(nn::layer_kind_name(spec.kind))
        .key("out_shape")
        .value(sh.flat_dim > 0 ? std::to_string(sh.flat_dim)
                               : std::to_string(sh.fm.c) + "x" +
                                     std::to_string(sh.fm.h) + "x" +
                                     std::to_string(sh.fm.w))
        .key("dense_macs_per_img").value(static_cast<double>(r.macs) / images)
        .key("host_us_per_call_p50")
        .value(recorded(i) ? nearest_rank(r.host_us_per_call, 50) : kNaN)
        .key("host_us_per_img").value(host / images)
        .key("host_recorded").value(recorded(i))
        .key("host_gmacs").value(gmacs)
        .key("host_pct_peak").value(100.0 * ratio(gmacs, peak_gmacs))
        .key("host_skip_pct")
        .value(100.0 * ratio(static_cast<double>(r.fast.mac_tiles_skipped),
                             tiles))
        .key("sim_cycles_per_img")
        .value(static_cast<double>(r.cycles) / images)
        .key("sim_cycles_source")
        .value(mode_ == driver::ExecMode::kCycle ? "cycle_engine"
                                                 : "perf_model")
        .key("sim_perf_model_cycles_per_img").value(perf_model_cycles)
        .end_object();
  }
}

bool Ledger::write_check(JsonWriter& out) const {
  bool all_recorded = true;
  double layer_sum = 0.0;
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    all_recorded = all_recorded && recorded(i);
    layer_sum += static_cast<double>(rows_[i].host_us);
  }
  layer_sum /= static_cast<double>(std::max<std::int64_t>(calls_, 1));
  const double p50 = nearest_rank(call_us_, 50);
  const double error_pct =
      all_recorded ? 100.0 * (p50 - layer_sum) / p50 : kNaN;
  const bool pass = all_recorded && std::abs(error_pct) <= 10.0;
  out.begin_object()
      .key("model").value(model_.id)
      .key("calls").value(calls_)
      .key("layer_host_us_sum_per_call").value(all_recorded ? layer_sum : kNaN)
      .key("batch_us_p50").value(p50)
      .key("error_pct").value(error_pct)
      .key("every_layer_recorded").value(all_recorded)
      .key("pass").value(pass)
      .end_object();
  return pass;
}

void Ledger::accumulate(Totals& t) const {
  t.call_us += total_call_us_;
  t.images += static_cast<double>(images_);
  t.calls.insert(t.calls.end(), call_us_.begin(), call_us_.end());
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const Row& r = rows_[i];
    const LayerKind kind = model_.net.layers()[i].kind;
    // A fused pad's cycles and (zero) host time belong to its conv step.
    const std::string hk = fused_[i] ? "conv" : host_kind(kind);
    if (recorded(i)) {
      t.recorded_us += static_cast<double>(r.host_us);
      t.kind_us[hk] += static_cast<double>(r.host_us);
    } else {
      t.all_recorded = false;
      t.unrecorded_kinds.insert(hk);
    }
    const double cycles = static_cast<double>(r.cycles);
    if (hk == "conv")
      t.kind_cycles["conv"] += cycles;
    else if (hk == "pool" || hk == "gpool")
      t.kind_cycles["pool"] += cycles;
    if (kind == LayerKind::kConv) t.conv_macs += static_cast<double>(r.macs);
    t.tiles += static_cast<double>(r.fast.mac_tiles + r.fast.mac_tiles_skipped);
    t.tiles_skipped += static_cast<double>(r.fast.mac_tiles_skipped);
    t.cycles += cycles;
    t.bubbles += static_cast<double>(r.counters.weight_bubbles);
    t.weight_slots += static_cast<double>(r.counters.weight_cmds) * group_;
    t.macs_performed += static_cast<double>(r.counters.macs_performed);
    t.mac_slots += cycles * macs_per_cycle_;
    t.dma_bytes += static_cast<double>(r.dma_bytes);
  }
}

void finish_layer_metrics(const Ledger::Totals& t, double peak_gmacs,
                          std::map<std::string, double>& layer) {
  // A kind with a layer that recorded no host time has unknown host time.
  const auto kind_us = [&t](const char* k) {
    if (t.unrecorded_kinds.count(k) != 0) return kNaN;
    const auto it = t.kind_us.find(k);
    return it == t.kind_us.end() ? 0.0 : it->second;
  };
  const auto kind_cycles = [&t](const char* k) {
    const auto it = t.kind_cycles.find(k);
    return it == t.kind_cycles.end() ? 0.0 : it->second;
  };
  layer["runtime.batch_us.p50"] = nearest_rank(t.calls, 50);
  layer["runtime.batch_us.p99"] = nearest_rank(t.calls, 99);
  // Glue is separable only when every layer recorded its own host time.
  layer["runtime.glue_pct"] =
      t.all_recorded ? 100.0 * ratio(t.call_us - t.recorded_us, t.call_us)
                     : kNaN;
  for (const char* k : {"conv", "pool", "fc", "eltwise", "gpool"})
    layer[std::string(k) + ".host_us_per_img"] = ratio(kind_us(k), t.images);
  const double conv_gmacs = ratio(t.conv_macs, kind_us("conv") * 1e3);
  layer["simd.peak_gmacs"] = peak_gmacs;
  layer["conv.gmacs"] = conv_gmacs;
  layer["conv.pct_peak"] = 100.0 * ratio(conv_gmacs, peak_gmacs);
  layer["conv.skip_pct"] = 100.0 * ratio(t.tiles_skipped, t.tiles);
  layer["cycle.host_ns_per_sim_cycle"] = ratio(t.call_us * 1e3, t.cycles);
  layer["cycle.host_ns_per_sim_cycle.conv"] =
      ratio(kind_us("conv") * 1e3, kind_cycles("conv"));
  layer["cycle.host_ns_per_sim_cycle.pool"] =
      ratio((kind_us("pool") + kind_us("gpool")) * 1e3, kind_cycles("pool"));
  layer["cycle.weight_bubble_pct"] = 100.0 * ratio(t.bubbles, t.weight_slots);
  layer["cycle.mac_util_pct"] = 100.0 * ratio(t.macs_performed, t.mac_slots);
  layer["cycle.dma_bytes_per_img"] = ratio(t.dma_bytes, t.images);
  layer["cycle.model_cycles_per_img"] = ratio(t.cycles, t.images);
}

double calibrate_peak_gmacs() {
  const core::simd::SimdBackend& b = core::simd::backend();
  constexpr int kGroups = 64;  // 1 KiB operands: L1-resident
  constexpr int kValues = kGroups * 16;
  constexpr int kIters = 100000;
  alignas(64) std::int8_t x[kValues];
  alignas(64) std::int8_t w[kValues];
  alignas(64) std::int32_t acc[kValues] = {};
  for (int i = 0; i < kValues; ++i) {
    x[i] = static_cast<std::int8_t>((i * 37) % 251 - 125);
    w[i] = static_cast<std::int8_t>((i * 91) % 241 - 120);
  }
  const double macs = static_cast<double>(kIters) * kValues;
  double best = 0.0;
  std::int64_t sink = 0;
  for (int rep = 0; rep < 3; ++rep) {
    Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kIters; ++i) sink += b.dot(x, w, kGroups);
    best = std::max(best, macs / (seconds_between(t0, Clock::now()) * 1e9));
    t0 = Clock::now();
    for (int i = 0; i < kIters; ++i) b.mac(acc, x, w[i % kValues], kGroups);
    best = std::max(best, macs / (seconds_between(t0, Clock::now()) * 1e9));
    sink += acc[rep];
  }
  calibration_sink = sink;
  return best;
}

}  // namespace bench
