// The accelerator instance: banks + kernels + wiring (paper Fig. 3).
//
// Bank contents persist across batches (feature maps stay on-chip between
// layer instructions); the streaming kernels and their FIFOs are constructed
// fresh for every run_batch call, under either execution mode.
//
// Typical use (the driver::Runtime does all of this for whole networks):
//   Accelerator acc(ArchConfig::k256_opt());
//   ... DMA stripes and packed weights into acc.bank(l) ...
//   auto stats = acc.run_batch(instructions, hls::Mode::kCycle);
#pragma once

#include <memory>
#include <vector>

#include "core/counters.hpp"
#include "core/isa.hpp"
#include "hls/system.hpp"
#include "pack/lane_stream.hpp"
#include "sim/sram.hpp"

namespace tsca::core {

struct BatchStats {
  std::uint64_t cycles = 0;  // 0 in thread mode
  CounterSnapshot counters;
  // Per-kernel busy cycles (cycle mode with track_utilization).
  std::vector<hls::CycleEngine::KernelActivity> kernel_activity;
  // Aggregate FIFO stall cycles (cycle mode): producer / consumer waits.
  std::uint64_t fifo_push_stalls = 0;
  std::uint64_t fifo_pop_stalls = 0;
  // Read-port stalls across banks.
  std::uint64_t port_stalls = 0;
};

class Accelerator {
 public:
  explicit Accelerator(ArchConfig cfg);
  Accelerator(const Accelerator&) = delete;
  Accelerator& operator=(const Accelerator&) = delete;

  const ArchConfig& config() const { return cfg_; }
  int num_banks() const { return static_cast<int>(banks_.size()); }
  sim::SramBank& bank(int lane);

  // Validates and executes a batch of instructions to completion.  A HALT is
  // appended automatically.  Counters accumulate across batches until
  // reset_counters().
  BatchStats run_batch(const std::vector<Instruction>& instructions,
                       hls::Mode mode,
                       hls::SystemOptions options = default_options());

  Counters& counters() { return counters_; }
  void reset_counters() { counters_.reset(); }

  static hls::SystemOptions default_options() {
    return hls::SystemOptions{.max_cycles = 2'000'000'000, .watchdog_ms = 20'000};
  }

 private:
  ArchConfig cfg_;
  std::vector<std::unique_ptr<sim::SramBank>> banks_;
  Counters counters_;
  // Parsed weight streams, recycled by the fetch units across instructions
  // and batches (declared here so it outlives every batch's bundles).
  pack::LaneStreamPool streams_;
};

}  // namespace tsca::core
