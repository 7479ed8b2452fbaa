// Per-stripe execution units shared by the serial Runtime and the
// host-parallel AcceleratorPool runtime.
//
// A stripe (or, for batched convolution, one image's pass over a stripe's
// weight chunk) is the unit of independent work the paper's 512-opt variant
// distributes over accelerator instances (§IV-D).  Both runtimes execute
// stripes through these functions, so pooled execution is bit-identical to
// the serial path by construction: same staging, same instructions, same
// cycle counts per unit — only the host-side dispatch differs.
#pragma once

#include <cstdint>
#include <vector>

#include "core/accelerator.hpp"
#include "driver/compiler.hpp"
#include "driver/program.hpp"
#include "obs/trace.hpp"
#include "pack/tile.hpp"
#include "sim/dma.hpp"

namespace tsca::driver {

// One accelerator instance's host-side execution context: the accelerator,
// its DDR staging memory, the DMA engine, and the staging bump allocator.
struct ExecCtx {
  core::Accelerator& acc;
  sim::Dram& dram;
  sim::DmaEngine& dma;
  std::uint64_t& ddr_cursor;
  hls::Mode mode;
  // Observability (null disables): the compute track this unit lays its
  // stripe/batch spans on.  trace_kernels additionally records per-kernel
  // busy/stall spans inside every batch (cycle mode only) on sibling tracks
  // "<track name>/<kernel>".
  obs::Track* trace = nullptr;
  bool trace_kernels = false;
  // DDR residency of a NetworkProgram's weight image in this context:
  // `resident_stamp` names the program (0 = none) whose image lives at
  // [program_base, program_base + image size); stage_chunk_weights DMAs a
  // matching layer's streams straight from it instead of re-writing DDR.
  // The staging bump allocator wraps to `ddr_floor` (the first byte past the
  // resident image) instead of 0 so staging never clobbers the image.
  std::uint64_t resident_stamp = 0;
  std::uint64_t program_base = 0;
  std::uint64_t ddr_floor = 0;
};

// DMA helpers: stage bytes through DDR into a bank region and back.
void stage_to_bank(ExecCtx& ctx, sim::SramBank& bank, int word_addr,
                   const std::vector<std::uint8_t>& bytes,
                   bool count_stats = true);
std::vector<std::uint8_t> stage_from_bank(ExecCtx& ctx,
                                          const sim::SramBank& bank,
                                          int word_addr, int words);

struct StripeOutcome {
  std::uint64_t cycles = 0;  // accelerator cycles accumulated by this unit
  int batches = 0;           // instruction batches submitted

  StripeOutcome& operator+=(const StripeOutcome& other) {
    cycles += other.cycles;
    batches += other.batches;
    return *this;
  }
};

// Accelerator::run_batch with the context's instrumentation applied: records
// a `label` span of the batch's cycles (with instruction count and stall
// totals as args) on ctx.trace and, when ctx.trace_kernels is set, threads
// the recorder into the cycle engine for per-kernel spans.
core::BatchStats run_batch_traced(ExecCtx& ctx,
                                  const std::vector<core::Instruction>& instrs,
                                  const char* label);

// Stages one weight chunk's per-(group, lane) streams at lane-aligned bases
// and builds the chunk's CONV instructions.  When the conv layer's owning
// program image is resident in the context's DDR the streams are DMA'd from
// it in place (same transfers, same bytes — identical statistics); otherwise
// they are staged through the bump allocator.  `count_stats = false`
// replicates weights without DMA accounting (pooled batch path: the modelled
// hardware stages each chunk once, see account_chunk_weights).
std::vector<core::Instruction> stage_chunk_weights(
    ExecCtx& ctx, const ConvProgram& conv, const ConvStripe& stripe,
    const ConvStripe::Chunk& chunk, bool count_stats = true);

// Stats-only twin of stage_chunk_weights(count_stats = true): accounts the
// chunk's weight-staging DMA exactly once, with the same per-stream transfer
// granularity as the serial path.
void account_chunk_weights(sim::DmaEngine& dma, const ConvStripe::Chunk& chunk,
                           const WeightImage& wimg);

// Executes one convolution stripe end to end: stages the (padded) IFM stripe
// into every bank, runs every weight chunk as an instruction batch, and reads
// the OFM stripe back into `output` (disjoint tile rows per stripe, so
// concurrent stripes never touch the same tiles).
StripeOutcome exec_conv_stripe(ExecCtx& ctx, const ConvProgram& conv,
                               const ConvStripe& stripe,
                               const pack::TiledFm& input,
                               pack::TiledFm& output);

// Executes one PAD/POOL stripe end to end.
StripeOutcome exec_pool_stripe(ExecCtx& ctx, const PoolPlan& plan,
                               const PoolStripe& stripe,
                               const pack::TiledFm& input,
                               pack::TiledFm& output);

// Batched convolution: runs one image through one (stripe, chunk) whose
// weights are already staged (instrs from stage_chunk_weights), reading back
// only the chunk's output-channel slots.
StripeOutcome exec_batch_image_chunk(ExecCtx& ctx, const ConvProgram& conv,
                                     const ConvStripe& stripe,
                                     const ConvStripe::Chunk& chunk,
                                     const std::vector<core::Instruction>& instrs,
                                     const pack::TiledFm& input,
                                     pack::TiledFm& output);

}  // namespace tsca::driver
