// Host-parallel runtime on top of AcceleratorPool.
//
// Drop-in replacement for the serial Runtime with two parallelism axes:
// the stripe loops of run_pad_pool and of the fast path fan out over the
// pool's workers (one stripe per unit), and engine convolution fans out over
// (image × stripe) units, so a batch of one still spreads its stripes.
// Request-level parallelism belongs to serve::Server, whose workers each own
// a context.
//
// Determinism guarantee: simulated cycle counts, hardware counters, and
// output feature maps are bit-identical to the serial Runtime for any worker
// count.  Every unit runs through the shared per-stripe executors
// (driver/stripe_exec.hpp) on a private context; merges are index-ordered
// sums (commutative in exact integer arithmetic) with the serial path's
// max-over-instances / sum-over-stripes cycle accounting.  DMA statistics
// match too: the only staging the pool adds — replicating a batch chunk's
// weights into more than one context — is performed unaccounted and charged
// analytically once, as the hardware would stage it.
#pragma once

#include <vector>

#include "driver/accelerator_pool.hpp"
#include "driver/runtime.hpp"

namespace tsca::driver {

class PoolRuntime final : public Runtime {
 public:
  // The pool must outlive the runtime.  Serial paths (fused pad+conv, FC
  // lowering, host-side layers) run on context 0.
  explicit PoolRuntime(AcceleratorPool& pool, RuntimeOptions options = {});

  pack::TiledFm run_pad_pool(const pack::TiledFm& input, const PoolPlan& plan,
                             LayerRun& run) override;

  // Stages the program's weight image into every worker context's DDR (and
  // the base runtime's, i.e. context 0), so pooled stripes and images all
  // read weights from a resident image.
  void ensure_program_staged(const NetworkProgram& program) override;

 protected:
  // Engine convolution: one unit per (image, stripe) on the workers' private
  // contexts, cycles bucketed per stripe exactly like the serial body.
  void engine_exec_conv(const std::vector<pack::TiledFm>& inputs,
                        const ConvProgram& conv,
                        std::vector<pack::TiledFm>& outputs,
                        LayerRun& run) override;
  // Fast-path stripe parallelism: the plan's stripe row-bands fan out across
  // the pool's workers (bands write disjoint output tiles — nothing to
  // reduce), with per-band FastConvStats summed in stripe index order.
  // Outputs and statistics are bit-identical to the serial bodies.
  void fast_exec_conv(const pack::TiledFm* const* inputs, int batch,
                      const core::FastConvWeights& fw, const ConvProgram& conv,
                      pack::TiledFm* const* outputs,
                      core::FastConvStats& stats) override;
  void fast_exec_pool(const pack::TiledFm& input, const PoolPlan& plan,
                      pack::TiledFm& output) override;

 private:
  // Captures per-context counter/DMA snapshots around a parallel region and
  // merges the deltas into `run`.
  struct ScopedMerge;

  AcceleratorPool& pool_;
};

}  // namespace tsca::driver
