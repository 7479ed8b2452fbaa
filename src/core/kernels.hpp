// The accelerator's streaming kernels.
//
// Each function below is one of the paper's software threads (§II-A coding
// style): an endless loop that pops from input FIFOs, computes, and pushes to
// output FIFOs, terminating on a halt token.  The same coroutine bodies run
// under the threaded engine (the paper's pthreads program) and the cycle
// engine (the synthesized hardware's timing model).
//
// Per lane (×4 in the full accelerator):
//   fetch_kernel   — data-staging, memory half: streams packed weights and
//                    preloads IFM tile windows through the bank read port;
//   inject_kernel  — data-staging, inject half: one weight per filter per
//                    cycle into the convolution unit (bubbles when the four
//                    filters' non-zero counts differ);
//   conv_kernel    — 4 weights × 16 IFM values = 64 multiplies per cycle;
//   write_kernel   — requantizes finished tiles and writes them to port B;
//   pool_pad_kernel— the Fig. 5 MAX/mux unit.
// Per group slot (×4):
//   accum_kernel   — owns one OFM tile, merges products from all lanes.
// Plus one controller that decodes host instructions and dispatches work.
#pragma once

#include "core/counters.hpp"
#include "core/messages.hpp"
#include "hls/barrier.hpp"
#include "hls/fifo.hpp"
#include "hls/kernel.hpp"
#include "sim/sram.hpp"

namespace tsca::core {

// Shared context: references outlive the kernels (owned by Accelerator /
// hls::System for the duration of a batch).
struct SharedCtx {
  hls::Domain* domain = nullptr;
  const ArchConfig* cfg = nullptr;
  Counters* counters = nullptr;
};

struct ControllerCtx {
  SharedCtx shared;
  hls::Fifo<Instruction>* host_q = nullptr;
  std::vector<hls::Fifo<FetchCmd>*> fetch_cmd;    // per lane
  std::vector<hls::Fifo<AccCtrl>*> acc_ctrl;      // per group slot
  std::vector<hls::Fifo<WriteCtrl>*> write_ctrl;  // per lane
};

struct FetchCtx {
  SharedCtx shared;
  int lane = 0;
  sim::SramBank* bank = nullptr;
  pack::LaneStreamPool* streams = nullptr;  // outlives the batch's bundles
  hls::Fifo<FetchCmd>* cmd_in = nullptr;
  hls::Fifo<WindowBundle>* bundle_out = nullptr;
  hls::Fifo<PoolCmd>* pool_out = nullptr;
  hls::Barrier* position_barrier = nullptr;  // null: no barrier
};

struct InjectCtx {
  SharedCtx shared;
  int lane = 0;
  hls::Fifo<WindowBundle>* bundle_in = nullptr;
  hls::Fifo<ConvCmd>* conv_out = nullptr;
};

struct ConvCtx {
  SharedCtx shared;
  int lane = 0;
  hls::Fifo<ConvCmd>* cmd_in = nullptr;
  std::vector<hls::Fifo<ProductMsg>*> product_out;  // per group slot
};

struct AccumCtx {
  SharedCtx shared;
  int slot = 0;
  hls::Fifo<AccCtrl>* ctrl_in = nullptr;
  std::vector<hls::Fifo<ProductMsg>*> product_in;  // per lane
  hls::Fifo<AccTileMsg>* tile_out = nullptr;
};

struct WriteCtx {
  SharedCtx shared;
  int lane = 0;
  sim::SramBank* bank = nullptr;
  hls::Fifo<WriteCtrl>* ctrl_in = nullptr;
  hls::Fifo<AccTileMsg>* acc_in = nullptr;
  hls::Fifo<PoolOutMsg>* pool_in = nullptr;
};

struct PoolPadCtx {
  SharedCtx shared;
  int lane = 0;
  hls::Fifo<PoolCmd>* cmd_in = nullptr;
  hls::Fifo<PoolOutMsg>* out = nullptr;
};

hls::Kernel controller_kernel(ControllerCtx ctx);
hls::Kernel fetch_kernel(FetchCtx ctx);
hls::Kernel inject_kernel(InjectCtx ctx);
hls::Kernel conv_kernel(ConvCtx ctx);
hls::Kernel accum_kernel(AccumCtx ctx);
hls::Kernel write_kernel(WriteCtx ctx);
hls::Kernel pool_pad_kernel(PoolPadCtx ctx);

// Channels a lane owns for a given channel count (round-robin distribution).
int lane_channel_count(int channels, int lane, int lanes);

}  // namespace tsca::core
