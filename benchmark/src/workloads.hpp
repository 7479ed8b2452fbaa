// The benchmark's four workloads.
//
//   wire_vgg    open-loop TCP traffic to one VGG-16 server in three phases
//               (light, loaded, overloaded): the socket, queue, batching
//               and fast-path layers together.
//   batch_vgg8  run_network_batch in process, batches of 8: kernels and
//               driver glue only — no server, socket or queue.
//   mixed_zoo   one registry server, three models, two SLO classes over two
//               connections: priorities, fair share, model restaging and
//               eltwise layers.
//   cycle_sim   the cycle-accurate engine (the paper path), one image per
//               call: the HLS engine and the simulated DMA/SRAM only.
#pragma once

#include <string>

#include "bench.hpp"
#include "obs/trace.hpp"

namespace bench {

bool known_workload(const std::string& name);

// Runs `opt.workload` once.  With `trace` set it records bench/ spans into
// it and fills the per-layer metrics (running the per-layer ledger too);
// without, it fills the end-to-end metrics.
WorkloadResult run_workload(const RunOptions& opt, tsca::obs::Recorder* trace);

}  // namespace bench
