#include "driver/pool_runtime.hpp"

#include <algorithm>

#include "driver/stripe_exec.hpp"

namespace tsca::driver {

// Snapshots every context's counters and DMA statistics on construction;
// merge() folds the per-context deltas into a LayerRun.  Sums of identical
// per-unit integer deltas are independent of worker assignment, which is
// what makes the merged statistics bit-identical to the serial path.
struct PoolRuntime::ScopedMerge {
  explicit ScopedMerge(AcceleratorPool& pool) : pool_(pool) {
    counters_before.reserve(static_cast<std::size_t>(pool.workers()));
    dma_before.reserve(static_cast<std::size_t>(pool.workers()));
    for (int i = 0; i < pool.workers(); ++i) {
      counters_before.push_back(core::snapshot(pool.context(i).acc.counters()));
      dma_before.push_back(pool.context(i).dma.stats());
    }
  }

  void merge(LayerRun& run) const {
    for (int i = 0; i < pool_.workers(); ++i) {
      run.counters += core::snapshot(pool_.context(i).acc.counters()) -
                      counters_before[static_cast<std::size_t>(i)];
      run.dma += pool_.context(i).dma.stats() -
                 dma_before[static_cast<std::size_t>(i)];
    }
  }

  AcceleratorPool& pool_;
  std::vector<core::CounterSnapshot> counters_before;
  std::vector<sim::DmaStats> dma_before;
};

namespace {

ExecCtx make_exec_ctx(AcceleratorPool::Context& ctx, hls::Mode mode) {
  ExecCtx ec{ctx.acc, ctx.dram, ctx.dma, ctx.ddr_cursor, mode};
  ec.resident_stamp = ctx.staged_stamp;
  ec.program_base = 0;
  ec.ddr_floor = ctx.ddr_floor;
  return ec;
}

// Serial cycle accounting: unit u's cycles land in instance bucket
// u % instances; a layer's elapsed cycles are the maximum bucket (instances
// work concurrently on separate stripes, §IV-D).
std::uint64_t max_over_instances(const std::vector<std::uint64_t>& per_unit,
                                 int instances) {
  std::vector<std::uint64_t> buckets(static_cast<std::size_t>(instances), 0);
  for (std::size_t u = 0; u < per_unit.size(); ++u)
    buckets[u % static_cast<std::size_t>(instances)] += per_unit[u];
  return *std::max_element(buckets.begin(), buckets.end());
}

}  // namespace

PoolRuntime::PoolRuntime(AcceleratorPool& pool, RuntimeOptions options)
    : Runtime(pool.context(0).acc, pool.context(0).dram, pool.context(0).dma,
              options),
      pool_(pool) {}

pack::TiledFm PoolRuntime::run_pad_pool(const pack::TiledFm& input,
                                        const PoolPlan& plan, LayerRun& run) {
  if (options_.mode == ExecMode::kFast)
    return Runtime::run_pad_pool(input, plan, run);
  const core::ArchConfig& cfg = pool_.config();
  TSCA_CHECK(plan.in_shape == input.shape(),
             "plan compiled for a different input shape");
  pack::TiledFm output(plan.out_shape);

  const ScopedMerge scope(pool_);
  run.reset_stats();
  run.on_accelerator = true;
  run.kind = plan.op == core::Opcode::kPad ? nn::LayerKind::kPad
                                           : nn::LayerKind::kMaxPool;
  run.stripes = static_cast<int>(plan.stripes.size());

  std::vector<StripeOutcome> outcomes(plan.stripes.size());
  const hls::Mode mode = engine_mode(options_.mode);
  const LayerTracer tracer = begin_layer_trace(pool_.workers(), "worker");
  const bool trace_kernels = options_.trace_kernels;
  if (tracer)
    for (int i = 0; i < pool_.workers(); ++i)
      pool_.context(i).dma.set_trace(tracer.dma[static_cast<std::size_t>(i)]);
  pool_.parallel_for(
      plan.stripes.size(),
      [&](AcceleratorPool::Context& ctx, std::size_t si) {
        ExecCtx ec = make_exec_ctx(ctx, mode);
        if (tracer) {
          ec.trace = tracer.compute[static_cast<std::size_t>(ctx.worker)];
          ec.trace_kernels = trace_kernels;
        }
        outcomes[si] =
            exec_pool_stripe(ec, plan, plan.stripes[si], input, output);
      });
  if (tracer)
    for (int i = 0; i < pool_.workers(); ++i)
      pool_.context(i).dma.set_trace(nullptr);

  std::vector<std::uint64_t> per_stripe(outcomes.size());
  for (std::size_t si = 0; si < outcomes.size(); ++si) {
    per_stripe[si] = outcomes[si].cycles;
    run.batches += outcomes[si].batches;
  }
  run.cycles = max_over_instances(per_stripe, cfg.instances);
  scope.merge(run);
  finish_layer(run);
  return output;
}

void PoolRuntime::engine_exec_conv(const std::vector<pack::TiledFm>& inputs,
                                   const ConvProgram& conv,
                                   std::vector<pack::TiledFm>& outputs,
                                   LayerRun& run) {
  const ConvPlan& plan = conv.plan;
  const std::size_t images = inputs.size();
  const std::size_t stripes = plan.stripes.size();
  const ScopedMerge scope(pool_);
  const LayerTracer tracer = begin_layer_trace(pool_.workers(), "worker");
  const bool trace_kernels = options_.trace_kernels;
  if (tracer)
    for (int i = 0; i < pool_.workers(); ++i)
      pool_.context(i).dma.set_trace(tracer.dma[static_cast<std::size_t>(i)]);

  // With more than one image the hardware stages each (stripe, chunk)'s
  // weights once and reuses them across the batch; account that DMA once
  // here.  Workers then replicate the streams into their own banks
  // unaccounted.
  if (images > 1)
    for (const ConvStripe& stripe : plan.stripes)
      for (const ConvStripe::Chunk& chunk : stripe.chunks)
        account_chunk_weights(pool_.context(0).dma, chunk, conv.wimg);

  // One unit per (image, stripe), so a lone image still spreads its stripes
  // across the workers.  Units read their own image and write disjoint tile
  // rows of its output, so no unit touches another's data.
  std::vector<StripeOutcome> outcomes(images * stripes);
  const hls::Mode mode = engine_mode(options_.mode);
  pool_.parallel_for(
      outcomes.size(), [&](AcceleratorPool::Context& ctx, std::size_t u) {
        const std::size_t img = u / stripes;
        const ConvStripe& stripe = plan.stripes[u % stripes];
        ExecCtx ec = make_exec_ctx(ctx, mode);
        if (tracer) {
          ec.trace = tracer.compute[static_cast<std::size_t>(ctx.worker)];
          ec.trace_kernels = trace_kernels;
        }
        if (images == 1) {
          // The serial lone-image schedule: the stripe stays staged across
          // its weight chunks.
          outcomes[u] =
              exec_conv_stripe(ec, conv, stripe, inputs[0], outputs[0]);
          return;
        }
        for (const ConvStripe::Chunk& chunk : stripe.chunks) {
          const std::vector<core::Instruction> instrs =
              stage_chunk_weights(ec, conv, stripe, chunk,
                                  /*count_stats=*/false);
          outcomes[u] += exec_batch_image_chunk(
              ec, conv, stripe, chunk, instrs, inputs[img], outputs[img]);
        }
      });
  if (tracer)
    for (int i = 0; i < pool_.workers(); ++i)
      pool_.context(i).dma.set_trace(nullptr);

  // Merge with the serial bucketing: stripe si's cycles (summed over chunks
  // and images) land in instance bucket si % instances.
  std::vector<std::uint64_t> per_stripe(stripes, 0);
  for (std::size_t u = 0; u < outcomes.size(); ++u) {
    per_stripe[u % stripes] += outcomes[u].cycles;
    run.batches += outcomes[u].batches;
  }
  run.cycles = max_over_instances(per_stripe, pool_.config().instances);
  scope.merge(run);
}

void PoolRuntime::fast_exec_conv(const pack::TiledFm* const* inputs, int batch,
                                 const core::FastConvWeights& fw,
                                 const ConvProgram& conv,
                                 pack::TiledFm* const* outputs,
                                 core::FastConvStats& stats) {
  const ConvPlan& plan = conv.plan;
  if (pool_.workers() <= 1 || plan.stripes.size() <= 1) {
    Runtime::fast_exec_conv(inputs, batch, fw, conv, outputs, stats);
    return;
  }
  // The stripes must tile the output rows contiguously for the bands to be
  // a partition of the serial full-height pass.
  int row = 0;
  for (const ConvStripe& stripe : plan.stripes) {
    TSCA_CHECK(stripe.otile_row0 == row, "stripe bands not contiguous");
    row += stripe.otile_rows;
  }
  TSCA_CHECK(row == outputs[0]->tiles_y(), "stripe bands do not cover OFM");
  std::vector<core::FastConvStats> per_stripe(plan.stripes.size());
  pool_.parallel_for(
      plan.stripes.size(),
      [&](AcceleratorPool::Context& ctx, std::size_t si) {
        const ConvStripe& stripe = plan.stripes[si];
        core::fast_conv(inputs, batch, fw, conv.bias, conv.rq, outputs,
                        stripe.otile_row0, stripe.otile_rows,
                        &per_stripe[si], &ctx.fast_scratch);
      });
  // Index-ordered sum: identical to the serial pass, whatever the worker
  // interleaving (each position's regions/MACs are independent of banding).
  for (const core::FastConvStats& s : per_stripe) stats += s;
}

void PoolRuntime::fast_exec_pool(const pack::TiledFm& input,
                                 const PoolPlan& plan, pack::TiledFm& output) {
  if (pool_.workers() <= 1 || plan.stripes.size() <= 1) {
    Runtime::fast_exec_pool(input, plan, output);
    return;
  }
  pool_.parallel_for(
      plan.stripes.size(),
      [&](AcceleratorPool::Context& /*ctx*/, std::size_t si) {
        core::fast_pad_pool(input, plan.fastp[si],
                            plan.stripes[si].in_tile_row0,
                            plan.stripes[si].otile_row0, output);
      });
}

void PoolRuntime::ensure_program_staged(const NetworkProgram& program) {
  for (int i = 0; i < pool_.workers(); ++i)
    stage_program_in_context(pool_.context(i), program);
  // Context 0 backs the base runtime's acc_/dram_/dma_: adopt the residency
  // it just received so the base-class bump allocator fences above the image.
  adopt_staged_program(program.stamp(), program.ddr_image().size());
}

}  // namespace tsca::driver
