// Per-layer ledger: host time next to modelled accelerator cycles.
//
// A Ledger accumulates the LayerRun records of many run_network_batch calls
// on one model.  Host columns come from LayerRun::host_wall_us (which is
// µs-truncated, so they are summed over many calls); simulated-cycle
// columns come from LayerRun::cycles — PerfModel predictions on the fast
// path, the cycle engine's own count in ExecMode::kCycle.  The two clocks
// are kept in separately named columns and never added together.
//
// In ExecMode::kCycle run_network_batch records no host time for fused
// pad+conv steps.  The ledger marks those rows host_recorded: false and
// reports their host columns, and every figure built on them, as unknown
// (null in JSON, NaN in the metrics) rather than estimating them.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "driver/runtime.hpp"
#include "models.hpp"
#include "report.hpp"

namespace bench {

class Ledger {
 public:
  // `program` is `model` compiled; its steps say which layers ran fused
  // and its ArchConfig sizes the modelled datapath.
  Ledger(const Model& model, tsca::driver::ExecMode mode,
         const tsca::driver::NetworkProgram& program);

  // One timed call over `images` inputs.
  void add(const tsca::driver::BatchNetworkRun& run, double call_us,
           int images);
  // PerfModel's per-layer cycle prediction from a fast-path run of one
  // image, for ledgers whose own cycles come from the engine.
  void set_predictions(const tsca::driver::BatchNetworkRun& fast_run);

  // This model's rows, one per network layer, as elements of `out`'s
  // current array.
  void write_rows(JsonWriter& out, double peak_gmacs) const;
  // The ledger's sum check: per-layer host µs per call against the median
  // call.  False when the sum is off by more than 10 %, or cannot be formed
  // because some layer recorded no host time.
  bool write_check(JsonWriter& out) const;

  // Workload-level sums over every ledger of a run.
  struct Totals {
    double recorded_us = 0, call_us = 0, images = 0;
    bool all_recorded = true;  // every layer recorded its host time
    std::map<std::string, double> kind_us;      // conv/pool/fc/eltwise/gpool
    std::set<std::string> unrecorded_kinds;     // host time not recorded
    std::map<std::string, double> kind_cycles;  // conv/pool (simulated)
    double conv_macs = 0, tiles = 0, tiles_skipped = 0;
    double cycles = 0, bubbles = 0, weight_slots = 0, macs_performed = 0,
           mac_slots = 0, dma_bytes = 0;
    std::vector<double> calls;
  };
  void accumulate(Totals& t) const;

 private:
  struct Row {
    std::int64_t host_us = 0;
    std::vector<double> host_us_per_call;
    std::uint64_t cycles = 0;
    std::int64_t macs = 0;
    tsca::core::CounterSnapshot counters;
    std::uint64_t dma_bytes = 0;
    tsca::core::FastConvStats fast;
    std::uint64_t predicted_cycles = 0;  // one image, PerfModel
  };
  bool recorded(std::size_t i) const;  // the runtime timed this layer

  const Model& model_;
  tsca::driver::ExecMode mode_;
  int group_;
  int macs_per_cycle_;
  std::vector<Row> rows_;
  std::vector<bool> fused_;  // layer ran inside a fused pad+conv step
  std::vector<double> call_us_;
  double total_call_us_ = 0.0;
  std::int64_t calls_ = 0;
  std::int64_t images_ = 0;
};

// Per-layer metrics of the runtime, kernel and cycle-model layers from a
// run's ledger totals.
void finish_layer_metrics(const Ledger::Totals& t, double peak_gmacs,
                          std::map<std::string, double>& layer);

// The active SIMD backend's best int8 MAC rate on L1-resident data (its
// dot and mac kernels, whichever is faster), in GMAC/s.
double calibrate_peak_gmacs();

}  // namespace bench
