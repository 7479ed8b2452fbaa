#include "driver/runtime.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "core/kernels.hpp"
#include "driver/stripe_exec.hpp"

namespace tsca::driver {

const char* exec_mode_name(ExecMode mode) {
  switch (mode) {
    case ExecMode::kCycle:
      return "cycle";
    case ExecMode::kThread:
      return "thread";
    case ExecMode::kFast:
      return "fast";
  }
  return "?";
}

namespace {

// ExecMode::kFast runs compile-time artifacts only: the decoded weights and
// PerfModel predictions compile_conv fills, the per-stripe fast plans and
// prediction compile_pool fills.  An artifact without them is refused here
// rather than silently re-derived on every call.
void check_fast_conv(const ConvProgram& conv) {
  TSCA_CHECK(conv.fastw.decoded() && conv.predicted_cycles != 0,
             "fast path needs a compiled conv (compile_conv)");
}

void check_fast_fused(const ConvProgram& conv,
                      const FusedPadConvLayout& layout) {
  TSCA_CHECK(conv.fastw.decoded() && layout.predicted_conv_cycles != 0,
             "fast path needs a compiled fusion (compile_fused_pad_conv)");
}

void check_fast_pool(const PoolPlan& plan) {
  TSCA_CHECK(plan.fastp.size() == plan.stripes.size() &&
                 plan.predicted_cycles != 0,
             "fast path needs a compiled pad/pool plan (compile_pool)");
}

// The fast conv executor runs the whole layer as one output-stationary pass;
// that is exact only because every stripe's halo is precisely the rows a
// global pass would read (so stripe-local out-of-grid zeros coincide with
// global out-of-grid zeros).  Assert the planner invariant that guarantees it.
void check_fast_stripe_invariant(const ConvPlan& plan) {
  const int in_rows_total = pack::tiles_for(plan.in_shape.h);
  const int halo =
      (plan.kernel + pack::kTileDim - 1) / pack::kTileDim;  // weight tile rows
  for (const ConvStripe& stripe : plan.stripes) {
    TSCA_CHECK(stripe.in_tile_row0 == stripe.otile_row0,
               "stripe halo starts above its output rows");
    TSCA_CHECK(stripe.in_tile_rows ==
                   std::min(stripe.otile_rows + halo,
                            in_rows_total - stripe.in_tile_row0),
               "stripe halo differs from the global window footprint");
  }
}

// Calls fn(ins, outs, n) per group of up to Runtime::kFastBatchLanes images
// of `fms` and their outputs in `outs`: the batch-major layout in which the
// images of a group share each weight walk and gathered region.  Per-image
// outputs are identical to serial single-image runs (the layout only packs
// more values per vector op).  The pointer tables are reused scratch.
template <class Fn>
void for_each_lane_group(const std::vector<pack::TiledFm>& fms,
                         std::vector<pack::TiledFm>& outs,
                         std::vector<const pack::TiledFm*>& ins_scratch,
                         std::vector<pack::TiledFm*>& outs_scratch, Fn&& fn) {
  for (std::size_t i0 = 0; i0 < fms.size();
       i0 += static_cast<std::size_t>(Runtime::kFastBatchLanes)) {
    const std::size_t n =
        std::min(static_cast<std::size_t>(Runtime::kFastBatchLanes),
                 fms.size() - i0);
    ins_scratch.clear();
    outs_scratch.clear();
    for (std::size_t i = 0; i < n; ++i) {
      ins_scratch.push_back(&fms[i0 + i]);
      outs_scratch.push_back(&outs[i0 + i]);
    }
    fn(ins_scratch.data(), outs_scratch.data(), static_cast<int>(n));
  }
}

}  // namespace

std::vector<std::uint8_t> bank_stripe_bytes(const pack::TiledFm& fm, int lane,
                                            int lanes, int row0, int rows) {
  TSCA_CHECK(row0 >= 0 && rows >= 0 && row0 + rows <= fm.tiles_y(),
             "stripe rows [" << row0 << ", " << row0 + rows << ") of "
                             << fm.tiles_y());
  std::vector<std::uint8_t> bytes;
  for (int c = lane; c < fm.channels(); c += lanes) {
    for (int r = row0; r < row0 + rows; ++r) {
      for (int x = 0; x < fm.tiles_x(); ++x) {
        const sim::Word word = sim::word_from_tile(fm.tile(c, r, x));
        bytes.insert(bytes.end(), word.b.begin(), word.b.end());
      }
    }
  }
  return bytes;
}

void unpack_bank_stripe(pack::TiledFm& fm,
                        const std::vector<std::uint8_t>& bytes, int lane,
                        int lanes, int row0, int rows) {
  TSCA_CHECK(row0 >= 0 && rows >= 0 && row0 + rows <= fm.tiles_y());
  std::size_t pos = 0;
  for (int c = lane; c < fm.channels(); c += lanes) {
    for (int r = row0; r < row0 + rows; ++r) {
      for (int x = 0; x < fm.tiles_x(); ++x) {
        TSCA_CHECK(pos + sim::kWordBytes <= bytes.size(),
                   "short stripe image");
        sim::Word word;
        std::copy(bytes.begin() + static_cast<std::ptrdiff_t>(pos),
                  bytes.begin() + static_cast<std::ptrdiff_t>(pos) +
                      sim::kWordBytes,
                  word.b.begin());
        fm.tile(c, r, x) = sim::tile_from_word(word);
        pos += sim::kWordBytes;
      }
    }
  }
}

Runtime::Runtime(core::Accelerator& accelerator, sim::Dram& dram,
                 sim::DmaEngine& dma, RuntimeOptions options)
    : acc_(accelerator), dram_(dram), dma_(dma), options_(std::move(options)) {
  if (options_.metrics != nullptr) {
    // Resolve every per-layer metric handle once: the registry's handles are
    // stable for its lifetime, so finish_layer records through plain
    // pointers with no name assembly on the warm path.
    obs::MetricsRegistry& m = *options_.metrics;
    rm_.layers = &m.counter("runtime.layers");
    rm_.accel_cycles = &m.counter("runtime.accel_cycles");
    rm_.batches = &m.counter("runtime.batches");
    rm_.stripes = &m.counter("runtime.stripes");
    rm_.macs = &m.counter("runtime.macs");
    rm_.dma_bytes_to_fpga = &m.counter("runtime.dma.bytes_to_fpga");
    rm_.dma_bytes_to_dram = &m.counter("runtime.dma.bytes_to_dram");
    rm_.predicted_layers = &m.counter("runtime.predicted_layers");
    rm_.fast_regions = &m.counter("fastpath.regions");
    rm_.fast_regions_zero = &m.counter("fastpath.regions_zero");
    rm_.fast_mac_tiles = &m.counter("fastpath.mac_tiles");
    rm_.fast_mac_tiles_skipped = &m.counter("fastpath.mac_tiles_skipped");
    rm_.layer_cycles = &m.histogram("runtime.layer_cycles");
  }
}

Runtime::LayerTracer Runtime::begin_layer_trace(int units,
                                                const char* unit_prefix) {
  LayerTracer tracer;
  if (options_.trace == nullptr) return tracer;
  tracer.compute.reserve(static_cast<std::size_t>(units));
  tracer.dma.reserve(static_cast<std::size_t>(units));
  for (int u = 0; u < units; ++u) {
    const std::string base =
        options_.trace_scope + unit_prefix + std::to_string(u);
    obs::Track& compute = options_.trace->track(base);
    obs::Track& dma = options_.trace->track(base + ".dma");
    // Rewind both cursors to the layer start: compute spans then accumulate
    // exactly the unit's batch cycles, so the busiest unit's cursor lands at
    // trace_clock_ + run.cycles — flush with the layer span below.
    compute.set_now(trace_clock_);
    dma.set_now(trace_clock_);
    tracer.compute.push_back(&compute);
    tracer.dma.push_back(&dma);
  }
  return tracer;
}

ExecCtx Runtime::exec_ctx() {
  ExecCtx ctx{acc_, dram_, dma_, ddr_cursor_, engine_mode(options_.mode)};
  ctx.trace_kernels = options_.trace_kernels;
  ctx.resident_stamp = resident_stamp_;
  ctx.program_base = program_base_;
  ctx.ddr_floor = ddr_floor_;
  return ctx;
}

void Runtime::ensure_program_staged(const NetworkProgram& program) {
  if (resident_stamp_ == program.stamp()) return;
  const std::vector<std::uint8_t>& image = program.ddr_image();
  TSCA_CHECK(image.size() <= dram_.size(),
             "program weight image (" << image.size()
                                      << " bytes) larger than DDR");
  // A host write into the modelled DDR — the paper's framework prepares the
  // weight regions before inference starts, so no DMA statistics accrue.
  if (!image.empty()) dram_.write(0, image.data(), image.size());
  adopt_staged_program(program.stamp(), image.size());
}

void Runtime::adopt_staged_program(std::uint64_t stamp,
                                   std::uint64_t ddr_floor) {
  resident_stamp_ = stamp;
  program_base_ = 0;
  ddr_floor_ = ddr_floor;
  ddr_cursor_ = ddr_floor;
}

void Runtime::finish_layer(const LayerRun& run) {
  if (options_.metrics != nullptr) {
    // All through handles cached at construction — no metric-name strings on
    // the per-layer path (see RunMetrics).
    rm_.layers->add(1);
    rm_.accel_cycles->add(static_cast<std::int64_t>(run.cycles));
    rm_.batches->add(run.batches);
    rm_.stripes->add(run.stripes);
    rm_.macs->add(run.macs);
    rm_.dma_bytes_to_fpga->add(static_cast<std::int64_t>(run.dma.bytes_to_fpga));
    rm_.dma_bytes_to_dram->add(static_cast<std::int64_t>(run.dma.bytes_to_dram));
    rm_.layer_cycles->observe(static_cast<std::int64_t>(run.cycles));
    if (run.cycles_predicted) rm_.predicted_layers->add(1);
    if (run.fast.regions != 0) {
      rm_.fast_regions->add(static_cast<std::int64_t>(run.fast.regions));
      rm_.fast_regions_zero->add(
          static_cast<std::int64_t>(run.fast.regions_zero));
      rm_.fast_mac_tiles->add(static_cast<std::int64_t>(run.fast.mac_tiles));
      rm_.fast_mac_tiles_skipped->add(
          static_cast<std::int64_t>(run.fast.mac_tiles_skipped));
    }
  }
  if (options_.trace != nullptr) {
    const std::string label =
        run.name.empty() ? std::string(nn::layer_kind_name(run.kind))
                         : run.name;
    options_.trace->track(options_.trace_scope + "layers")
        .complete(label, "layer", trace_clock_, run.cycles,
                  {{"macs", run.macs},
                   {"stripes", run.stripes},
                   {"batches", run.batches},
                   {"predicted", run.cycles_predicted ? 1 : 0},
                   {"dma_bytes",
                    static_cast<std::int64_t>(run.dma.bytes_to_fpga +
                                              run.dma.bytes_to_dram)}});
  }
  trace_clock_ += run.cycles;
}

pack::TiledFm Runtime::run_pad_pool(const pack::TiledFm& input,
                                    const PoolPlan& plan, LayerRun& run) {
  if (options_.mode == ExecMode::kFast)
    return fast_pad_pool_layer(input, plan, run);
  const core::ArchConfig& cfg = acc_.config();
  TSCA_CHECK(plan.in_shape == input.shape(),
             "plan compiled for a different input shape");
  pack::TiledFm output(plan.out_shape);

  const auto counters_before = core::snapshot(acc_.counters());
  const auto dma_before = dma_.stats();
  std::vector<std::uint64_t> instance_cycles(
      static_cast<std::size_t>(cfg.instances), 0);

  run.reset_stats();
  run.on_accelerator = true;
  run.kind = plan.op == core::Opcode::kPad ? nn::LayerKind::kPad
                                           : nn::LayerKind::kMaxPool;
  run.stripes = static_cast<int>(plan.stripes.size());

  ExecCtx ctx = exec_ctx();
  const LayerTracer tracer = begin_layer_trace(cfg.instances, "inst");
  for (std::size_t si = 0; si < plan.stripes.size(); ++si) {
    const std::size_t inst = si % static_cast<std::size_t>(cfg.instances);
    if (tracer) {
      ctx.trace = tracer.compute[inst];
      dma_.set_trace(tracer.dma[inst]);
    }
    const StripeOutcome outcome =
        exec_pool_stripe(ctx, plan, plan.stripes[si], input, output);
    instance_cycles[inst] += outcome.cycles;
    run.batches += outcome.batches;
  }
  if (tracer) dma_.set_trace(nullptr);
  run.cycles = *std::max_element(instance_cycles.begin(),
                                 instance_cycles.end());
  run.counters = core::snapshot(acc_.counters()) - counters_before;
  run.dma = dma_.stats() - dma_before;
  finish_layer(run);
  return output;
}

void Runtime::run_conv_batch(std::vector<pack::TiledFm>& fms,
                             const ConvProgram& conv, LayerRun& run) {
  TSCA_CHECK(!fms.empty());
  for (const pack::TiledFm& fm : fms)
    TSCA_CHECK(fm.shape() == fms.front().shape(),
               "batch images must share a shape");
  const ConvPlan& plan = conv.plan;
  TSCA_CHECK(plan.in_shape == fms.front().shape(),
             "program compiled for a different input shape");
  TSCA_CHECK(!plan.stripes.empty(),
             "conv program has no striped plan (fused-only layer)");
  const auto images = static_cast<std::int64_t>(fms.size());

  run.reset_stats();
  run.on_accelerator = true;
  run.kind = nn::LayerKind::kConv;
  run.macs = conv.macs * images;
  run.stripes = static_cast<int>(plan.stripes.size());

  // Outputs land in recycled storage; the final swap hands the old input
  // maps back as the staging pool the next layer's outputs draw from, so a
  // warm runtime runs whole networks without constructing a single map.
  size_fm_vec(batch_out_fms_, fms.size());
  for (pack::TiledFm& out : batch_out_fms_) out.reset(plan.out_shape);
  if (options_.mode == ExecMode::kFast) {
    check_fast_stripe_invariant(plan);
    check_fast_conv(conv);
    for (const ConvStripe& stripe : plan.stripes)
      run.batches += static_cast<int>(stripe.chunks.size() * fms.size());
    // The engine re-runs every chunk's instructions once per image (weights
    // stay staged), so both cycles and work counters scale linearly.
    run.cycles = conv.predicted_cycles * static_cast<std::uint64_t>(images);
    run.cycles_predicted = true;
    for (std::int64_t img = 0; img < images; ++img)
      run.counters += conv.predicted;
    for_each_lane_group(
        fms, batch_out_fms_, scratch_ins_, scratch_outs_,
        [&](const pack::TiledFm* const* ins, pack::TiledFm* const* outs,
            int n) {
          fast_exec_conv(ins, n, conv.fastw, conv, outs, run.fast);
        });
  } else {
    engine_exec_conv(fms, conv, batch_out_fms_, run);
  }
  fms.swap(batch_out_fms_);
  finish_layer(run);
}

void Runtime::engine_exec_conv(const std::vector<pack::TiledFm>& inputs,
                               const ConvProgram& conv,
                               std::vector<pack::TiledFm>& outputs,
                               LayerRun& run) {
  const core::ArchConfig& cfg = acc_.config();
  const auto counters_before = core::snapshot(acc_.counters());
  const auto dma_before = dma_.stats();
  std::vector<std::uint64_t> instance_cycles(
      static_cast<std::size_t>(cfg.instances), 0);

  ExecCtx ctx = exec_ctx();
  const LayerTracer tracer = begin_layer_trace(cfg.instances, "inst");
  for (std::size_t si = 0; si < conv.plan.stripes.size(); ++si) {
    const ConvStripe& stripe = conv.plan.stripes[si];
    const std::size_t instance = si % static_cast<std::size_t>(cfg.instances);
    if (tracer) {
      ctx.trace = tracer.compute[instance];
      dma_.set_trace(tracer.dma[instance]);
    }
    StripeOutcome outcome;
    if (inputs.size() == 1) {
      // A lone image stays in the banks across the stripe's weight chunks,
      // so its stripe is staged once.
      outcome = exec_conv_stripe(ctx, conv, stripe, inputs[0], outputs[0]);
    } else {
      for (const ConvStripe::Chunk& chunk : stripe.chunks) {
        // Weights once per chunk — the batch's whole point.
        const std::vector<core::Instruction> instrs =
            stage_chunk_weights(ctx, conv, stripe, chunk);
        for (std::size_t img = 0; img < inputs.size(); ++img)
          outcome += exec_batch_image_chunk(ctx, conv, stripe, chunk, instrs,
                                            inputs[img], outputs[img]);
      }
    }
    instance_cycles[instance] += outcome.cycles;
    run.batches += outcome.batches;
  }
  if (tracer) dma_.set_trace(nullptr);
  run.cycles = *std::max_element(instance_cycles.begin(),
                                 instance_cycles.end());
  run.counters = core::snapshot(acc_.counters()) - counters_before;
  run.dma = dma_.stats() - dma_before;
}

std::vector<std::int8_t> Runtime::run_fc_as_conv(
    const std::vector<std::int8_t>& input, const ConvProgram& fc_conv,
    LayerRun& run) {
  TSCA_CHECK(!input.empty());
  const int in_dim = static_cast<int>(input.size());
  TSCA_CHECK(fc_conv.plan.in_shape == (nn::FmShape{in_dim, 1, 1}),
             "fc program compiled for a different input width");
  const int out_dim = fc_conv.plan.out_shape.c;

  // 1x1 feature map with in_dim channels; filters are out_dim x in_dim x 1x1.
  nn::FeatureMapI8 fm({in_dim, 1, 1});
  for (int c = 0; c < in_dim; ++c)
    fm.at(c, 0, 0) = input[static_cast<std::size_t>(c)];

  run.name = "fc-as-conv";
  std::vector<pack::TiledFm> fms(1, pack::to_tiled(fm));
  run_conv_batch(fms, fc_conv, run);
  run.kind = nn::LayerKind::kFullyConnected;
  const nn::FeatureMapI8 linear = pack::from_tiled(fms.front());
  std::vector<std::int8_t> logits(static_cast<std::size_t>(out_dim));
  for (int o = 0; o < out_dim; ++o)
    logits[static_cast<std::size_t>(o)] = linear.at(o, 0, 0);
  return logits;
}

void Runtime::run_fused_pad_conv_batch(std::vector<pack::TiledFm>& fms,
                                       const ConvProgram& conv,
                                       const FusedPadConvLayout& layout,
                                       LayerRun& pad_run, LayerRun& conv_run) {
  TSCA_CHECK(!fms.empty());
  for (const pack::TiledFm& fm : fms)
    TSCA_CHECK(layout.raw == fm.shape(),
               "fused layout compiled for a different input shape");
  const auto images = static_cast<std::int64_t>(fms.size());

  pad_run.reset_stats();
  pad_run.on_accelerator = true;
  pad_run.kind = nn::LayerKind::kPad;
  pad_run.stripes = 1;
  pad_run.batches = static_cast<int>(images);
  conv_run.reset_stats();
  conv_run.on_accelerator = true;
  conv_run.kind = nn::LayerKind::kConv;
  conv_run.macs = conv.macs * images;
  conv_run.stripes = 1;
  conv_run.batches = static_cast<int>(images);

  // Same recycled-output discipline as run_conv_batch: outputs reuse pooled
  // maps, the swap donates the old inputs back to the pool.
  size_fm_vec(batch_out_fms_, fms.size());
  for (pack::TiledFm& out : batch_out_fms_) out.reset(layout.out);
  if (options_.mode == ExecMode::kFast) {
    check_fast_fused(conv, layout);
    // The engine replays the whole fusion once per image; predictions and
    // counters fold linearly.
    pad_run.cycles =
        layout.predicted_pad_cycles * static_cast<std::uint64_t>(images);
    pad_run.cycles_predicted = true;
    conv_run.cycles =
        layout.predicted_conv_cycles * static_cast<std::uint64_t>(images);
    conv_run.cycles_predicted = true;
    for (std::int64_t img = 0; img < images; ++img)
      conv_run.counters += layout.predicted;
    // The PAD batch never materializes on the host: fast_conv_padded lays
    // the raw pixels shifted into its input planes, bit-identical to padding
    // a TiledFm first.  Fused layers are unstriped by construction — no row
    // bands to fan out — so the lane groups stay direct serial calls.
    for_each_lane_group(
        fms, batch_out_fms_, scratch_ins_, scratch_outs_,
        [&](const pack::TiledFm* const* ins, pack::TiledFm* const* outs,
            int n) {
          core::fast_conv_padded(ins, n, conv.fastw, conv.bias, conv.rq,
                                 layout.pad.top, layout.pad.left, outs, 0,
                                 outs[0]->tiles_y(), &conv_run.fast,
                                 &fast_scratch_);
        });
  } else {
    const int lanes = acc_.config().lanes;
    const WeightImage& wimg = conv.wimg;
    const auto counters_before = core::snapshot(acc_.counters());
    const auto dma_before = dma_.stats();
    ExecCtx ctx = exec_ctx();
    const bool resident =
        conv.owner != 0 && conv.owner == ctx.resident_stamp;
    const LayerTracer tracer = begin_layer_trace(1, "inst");
    if (tracer) {
      ctx.trace = tracer.compute[0];
      dma_.set_trace(tracer.dma[0]);
    }
    const core::Instruction pad =
        core::Instruction::make_pad(make_fused_pad_instr(layout));
    std::vector<core::Instruction> convs;
    int base = layout.weight_base;
    for (int g = 0; g < wimg.groups(); ++g) {
      convs.push_back(core::Instruction::make_conv(
          make_fused_conv_instr(conv, layout, g, base)));
      base += wimg.aligned_words(g);
    }
    // Stage every weight stream once per batch (from the resident program
    // image when this layer's owner is staged in DDR — identical transfers
    // either way): the fused layout keeps them in their own bank region,
    // after raw, padded and OFM, which no image of the batch writes.
    for (int lane = 0; lane < lanes; ++lane) {
      int wbase = layout.weight_base;
      for (int g = 0; g < wimg.groups(); ++g) {
        const std::vector<std::uint8_t>& bytes = wimg.bytes(g, lane);
        if (resident && !bytes.empty()) {
          dma_.to_bank(acc_.bank(lane), wbase,
                       ctx.program_base + conv.stream_ddr_offset(g, lane),
                       bytes.size());
        } else {
          stage_to_bank(ctx, acc_.bank(lane), wbase, bytes);
        }
        wbase += wimg.aligned_words(g);
      }
    }
    for (std::size_t img = 0; img < fms.size(); ++img) {
      // Stage the raw input.
      for (int lane = 0; lane < lanes; ++lane)
        stage_to_bank(ctx, acc_.bank(lane), 0,
                      bank_stripe_bytes(fms[img], lane, lanes, 0,
                                        pack::tiles_for(layout.raw.h)));
      // Batch 1: PAD into the on-chip padded region.  (A separate batch: the
      // dependent CONV may only start once the pad's writes have landed,
      // which the host guarantees by polling completion — exactly what the
      // paper's driver does between dependent instructions.)
      pad_run.cycles += run_batch_traced(ctx, {pad}, "fused pad").cycles;
      // Batch 2: all filter groups, reading the padded map in place.
      conv_run.cycles += run_batch_traced(ctx, convs, "fused conv").cycles;
      // Read the OFM back.
      const nn::FmShape& out = layout.out;
      for (int lane = 0; lane < lanes; ++lane) {
        const int lane_words = core::lane_channel_count(out.c, lane, lanes) *
                               pack::tiles_for(out.h) * pack::tiles_for(out.w);
        if (lane_words == 0) continue;
        unpack_bank_stripe(batch_out_fms_[img],
                           stage_from_bank(ctx, acc_.bank(lane),
                                           layout.ofm_base, lane_words),
                           lane, lanes, 0, pack::tiles_for(out.h));
      }
    }
    if (tracer) dma_.set_trace(nullptr);
    conv_run.counters = core::snapshot(acc_.counters()) - counters_before;
    conv_run.dma = dma_.stats() - dma_before;
  }
  fms.swap(batch_out_fms_);
  finish_layer(pad_run);
  finish_layer(conv_run);
}

void Runtime::fast_exec_conv(const pack::TiledFm* const* inputs, int batch,
                             const core::FastConvWeights& fw,
                             const ConvProgram& conv,
                             pack::TiledFm* const* outputs,
                             core::FastConvStats& stats) {
  core::fast_conv(inputs, batch, fw, conv.bias, conv.rq, outputs, 0,
                  outputs[0]->tiles_y(), &stats, &fast_scratch_);
}

void Runtime::fast_exec_pool(const pack::TiledFm& input, const PoolPlan& plan,
                             pack::TiledFm& output) {
  for (std::size_t si = 0; si < plan.stripes.size(); ++si)
    core::fast_pad_pool(input, plan.fastp[si], plan.stripes[si].in_tile_row0,
                        plan.stripes[si].otile_row0, output);
}

pack::TiledFm Runtime::fast_pad_pool_layer(const pack::TiledFm& input,
                                           const PoolPlan& plan,
                                           LayerRun& run) {
  TSCA_CHECK(plan.in_shape == input.shape(),
             "plan compiled for a different input shape");
  check_fast_pool(plan);
  pack::TiledFm output(plan.out_shape);

  run.reset_stats();
  run.on_accelerator = true;
  run.kind = plan.op == core::Opcode::kPad ? nn::LayerKind::kPad
                                           : nn::LayerKind::kMaxPool;
  run.stripes = static_cast<int>(plan.stripes.size());
  run.batches = run.stripes;  // one batch per stripe, like the engine
  fast_exec_pool(input, plan, output);

  run.cycles = plan.predicted_cycles;
  run.counters.pool_ops = plan.predicted_ops;
  run.cycles_predicted = true;
  if (plan.op == core::Opcode::kPad)
    run.counters.pad_instrs = run.stripes;
  else
    run.counters.pool_instrs = run.stripes;
  finish_layer(run);
  return output;
}

void Runtime::fast_fc_batch(const std::vector<std::vector<std::int8_t>>& ins,
                            const FcProgram& fc,
                            std::vector<std::vector<std::int8_t>>& outs) {
  TSCA_CHECK(!ins.empty());
  TSCA_CHECK(fc.out_dim > 0);
  const std::size_t in_size = ins.front().size();
  for (const std::vector<std::int8_t>& in : ins)
    TSCA_CHECK(in.size() == in_size, "batch FC inputs must share a size");
  TSCA_CHECK(fc.weights.size() ==
             in_size * static_cast<std::size_t>(fc.out_dim));
  TSCA_CHECK(fc.bias.empty() ||
             static_cast<int>(fc.bias.size()) == fc.out_dim);
  const core::simd::SimdBackend& be = core::simd::backend();
  const int groups = static_cast<int>(in_size) / 16;
  const std::size_t head = static_cast<std::size_t>(groups) * 16;
  // resize() keeps existing capacity both at the batch and per-image level,
  // so a reused `outs` stops allocating once it has seen the widest FC.
  outs.resize(ins.size());
  for (std::vector<std::int8_t>& out : outs)
    out.resize(static_cast<std::size_t>(fc.out_dim));
  for (int o = 0; o < fc.out_dim; ++o) {
    const std::int8_t* row =
        &fc.weights[static_cast<std::size_t>(o) * in_size];
    const std::uint32_t bias0 = static_cast<std::uint32_t>(
        fc.bias.empty() ? 0 : fc.bias[static_cast<std::size_t>(o)]);
    // Image-inner: the row stays cache-hot across the whole batch, and four
    // images at a time share each of the row's register loads (dot4).  The
    // per-image arithmetic is one image's dot plus a scalar tail, exactly
    // the leftover loop below, so outputs are bit-equal.
    std::size_t i = 0;
    for (; i + 4 <= ins.size(); i += 4) {
      const std::int8_t* quad[4] = {ins[i].data(), ins[i + 1].data(),
                                    ins[i + 2].data(), ins[i + 3].data()};
      std::int32_t d4[4];
      be.dot4(row, quad, groups, d4);
      for (int q = 0; q < 4; ++q) {
        const std::vector<std::int8_t>& in = ins[i + q];
        std::uint32_t acc = bias0 + static_cast<std::uint32_t>(d4[q]);
        for (std::size_t k = head; k < in_size; ++k)
          acc += static_cast<std::uint32_t>(static_cast<std::int32_t>(row[k]) *
                                            in[k]);
        outs[i + q][static_cast<std::size_t>(o)] =
            nn::requantize(static_cast<std::int32_t>(acc), fc.rq);
      }
    }
    for (; i < ins.size(); ++i) {
      const std::vector<std::int8_t>& in = ins[i];
      std::uint32_t acc = bias0;
      acc += static_cast<std::uint32_t>(be.dot(in.data(), row, groups));
      for (std::size_t k = head; k < in_size; ++k)
        acc += static_cast<std::uint32_t>(static_cast<std::int32_t>(row[k]) *
                                          in[k]);
      outs[i][static_cast<std::size_t>(o)] =
          nn::requantize(static_cast<std::int32_t>(acc), fc.rq);
    }
  }
}

void Runtime::size_fm_vec(std::vector<pack::TiledFm>& v, std::size_t n) {
  while (v.size() > n) {
    fm_pool_.push_back(std::move(v.back()));
    v.pop_back();
  }
  while (v.size() < n) {
    if (!fm_pool_.empty()) {
      v.push_back(std::move(fm_pool_.back()));
      fm_pool_.pop_back();
    } else {
      v.emplace_back();
    }
  }
}

void Runtime::reserve_warm_scratch(const NetworkProgram& program,
                                   int max_batch) {
  TSCA_CHECK(max_batch > 0);
  // fast_conv sees at most one lane group of images per call.
  const int lanes = std::min(max_batch, kFastBatchLanes);
  nn::FmShape biggest{};
  std::size_t max_tiles = 0;
  const auto note_shape = [&](const nn::FmShape& s) {
    const std::size_t tiles = static_cast<std::size_t>(s.c) *
                              pack::tiles_for(s.h) * pack::tiles_for(s.w);
    if (tiles > max_tiles) {
      max_tiles = tiles;
      biggest = s;
    }
  };
  note_shape(program.net().input_shape());
  for (const NetworkProgram::Step& step : program.steps()) {
    switch (step.exec) {
      case NetworkProgram::Step::Exec::kConv: {
        const ConvProgram& conv = program.conv(step.conv);
        note_shape(conv.plan.in_shape);
        note_shape(conv.plan.out_shape);
        if (conv.fastw.decoded())
          fast_scratch_.reserve_conv(
              lanes, conv.fastw.channels, conv.fastw.out_channels,
              pack::tiles_for(conv.plan.out_shape.h) + conv.fastw.wtiles_y,
              pack::tiles_for(conv.plan.out_shape.w) + conv.fastw.wtiles_x);
        break;
      }
      case NetworkProgram::Step::Exec::kFusedPadConv: {
        const ConvProgram& conv = program.conv(step.conv);
        const FusedPadConvLayout& layout = program.fused(step.fused);
        note_shape(layout.raw);
        note_shape(layout.out);
        if (conv.fastw.decoded())
          fast_scratch_.reserve_conv(
              lanes, conv.fastw.channels, conv.fastw.out_channels,
              pack::tiles_for(layout.out.h) + conv.fastw.wtiles_y,
              pack::tiles_for(layout.out.w) + conv.fastw.wtiles_x);
        break;
      }
      case NetworkProgram::Step::Exec::kPadPool:
      case NetworkProgram::Step::Exec::kGlobalPool: {
        const PoolPlan& plan = program.pool(step.pool);
        note_shape(plan.in_shape);
        note_shape(plan.out_shape);
        break;
      }
      default:
        break;
    }
  }
  // Pre-grow the recycled map pool so the busiest moment of a batch — the
  // current maps plus the output staging maps — never constructs storage.
  // Each pooled map carries capacity for the program's largest feature map;
  // reset() to any smaller shape reuses it.
  const std::size_t want = static_cast<std::size_t>(max_batch) * 2;
  fm_pool_.reserve(want);
  while (fm_pool_.size() + batch_fms_.size() + batch_out_fms_.size() < want)
    fm_pool_.emplace_back(biggest);
  batch_fms_.reserve(static_cast<std::size_t>(max_batch));
  batch_out_fms_.reserve(static_cast<std::size_t>(max_batch));
  batch_flats_.reserve(static_cast<std::size_t>(max_batch));
  batch_flats2_.reserve(static_cast<std::size_t>(max_batch));
  batch_slots_.resize(static_cast<std::size_t>(program.slot_count()));
  scratch_ins_.reserve(static_cast<std::size_t>(kFastBatchLanes));
  scratch_outs_.reserve(static_cast<std::size_t>(kFastBatchLanes));
}

std::size_t Runtime::warm_scratch_bytes() const {
  const auto fm_bytes = [](const pack::TiledFm& fm) {
    return fm.tiles().capacity() * sizeof(pack::Tile);
  };
  std::size_t bytes = fast_scratch_.capacity_bytes();
  for (const pack::TiledFm& fm : fm_pool_) bytes += fm_bytes(fm);
  for (const pack::TiledFm& fm : batch_fms_) bytes += fm_bytes(fm);
  for (const pack::TiledFm& fm : batch_out_fms_) bytes += fm_bytes(fm);
  for (const std::vector<pack::TiledFm>& slot : batch_slots_)
    for (const pack::TiledFm& fm : slot) bytes += fm_bytes(fm);
  for (const std::vector<std::int8_t>& f : batch_flats_) bytes += f.capacity();
  for (const std::vector<std::int8_t>& f : batch_flats2_) bytes += f.capacity();
  return bytes;
}

namespace {

// Microseconds elapsed since `t0` (host wall clock, LayerRun::host_wall_us).
std::int64_t us_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// Polls the cooperative cancellation flag between network steps.
void check_cancel(const RuntimeOptions& options) {
  if (options.cancel != nullptr &&
      options.cancel->load(std::memory_order_relaxed))
    throw RequestCancelled{};
}

// Enforces the per-run cycle budget between network steps.  `spent` is the
// trace-clock advance since the run started (the clock itself persists
// across a serving worker's batches, so the budget is relative).
void check_budget(const RuntimeOptions& options, std::uint64_t spent) {
  if (options.cycle_budget != 0 && spent > options.cycle_budget)
    throw BudgetExceeded{};
}

// Folds one image's layer statistics into the batch-aggregate LayerRun:
// additive fields sum (matching run_conv_batch's per-image linear scaling),
// per-plan fields (stripes) are identical across images and copied through.
void fold_layer_run(LayerRun& agg, const LayerRun& one) {
  agg.on_accelerator = agg.on_accelerator || one.on_accelerator;
  agg.cycles += one.cycles;
  agg.cycles_predicted = agg.cycles_predicted || one.cycles_predicted;
  agg.macs += one.macs;
  agg.stripes = one.stripes;
  agg.batches += one.batches;
  agg.counters += one.counters;
  agg.dma += one.dma;
  agg.fast += one.fast;
}

}  // namespace

BatchNetworkRun Runtime::run_network_batch(
    const NetworkProgram& program,
    const std::vector<nn::FeatureMapI8>& inputs) {
  std::vector<const nn::FeatureMapI8*> ptrs;
  ptrs.reserve(inputs.size());
  for (const nn::FeatureMapI8& input : inputs) ptrs.push_back(&input);
  return run_network_batch(program, ptrs.data(), ptrs.size());
}

BatchNetworkRun Runtime::run_network_batch(const NetworkProgram& program,
                                           const nn::FeatureMapI8* const* inputs,
                                           std::size_t n) {
  TSCA_CHECK(n > 0);
  for (std::size_t i = 0; i < n; ++i)
    TSCA_CHECK(inputs[i]->shape() == program.net().input_shape(),
               "input shape mismatch");
  ensure_program_staged(program);
  const std::vector<nn::LayerSpec>& layers = program.net().layers();

  BatchNetworkRun result;
  result.requests.resize(n);
  // Activations, flats and residual slots live in member storage: every
  // vector and map below reuses what the previous batch grew, so a warm
  // runtime's steady state performs no per-batch tensor allocation (see
  // DESIGN.md §15 and reserve_warm_scratch).
  result.layers.reserve(2 * program.steps().size());
  size_fm_vec(batch_fms_, n);
  std::vector<pack::TiledFm>& fms = batch_fms_;
  for (std::size_t i = 0; i < n; ++i) pack::to_tiled(*inputs[i], fms[i]);
  batch_flats_.resize(n);
  batch_flats2_.resize(n);
  // FC reads and writes different flats, so the warm path ping-pongs between
  // two reused buffers instead of allocating the output fresh.
  std::vector<std::vector<std::int8_t>>* flats_cur = &batch_flats_;
  bool is_flat = false;
  // Residual-skip tensor slots, one map per slot per image: a step stamped
  // save_slot parks its outputs here; kEltwiseAdd steps read their
  // right-hand operand back out.
  batch_slots_.resize(static_cast<std::size_t>(program.slot_count()));
  for (std::vector<pack::TiledFm>& slot : batch_slots_) slot.resize(n);
  std::vector<std::vector<pack::TiledFm>>& slots = batch_slots_;
  const bool keep = options_.keep_activations;

  const std::uint64_t clock0 = trace_clock_;
  for (const NetworkProgram::Step& step : program.steps()) {
    check_cancel(options_);
    check_budget(options_, trace_clock_ - clock0);
    const nn::LayerSpec& spec = layers[step.layer];
    const auto step_t0 = std::chrono::steady_clock::now();
    LayerRun agg;
    agg.name = spec.name;
    agg.kind = spec.kind;
    switch (step.exec) {
      case NetworkProgram::Step::Exec::kFusedPadConv: {
        // PAD + following CONV as one on-chip fusion (decided at compile
        // time); the step covers both layers.  The padded intermediate never
        // leaves the chip, so it is reconstructed for callers that asked for
        // every activation.
        if (keep)
          for (std::size_t i = 0; i < n; ++i)
            result.requests[i].activations.push_back(
                nn::pad_i8(pack::from_tiled(fms[i]), spec.pad));
        LayerRun conv_agg;
        conv_agg.name = layers[step.layer + 1].name;
        run_fused_pad_conv_batch(fms, program.conv(step.conv),
                                 program.fused(step.fused), agg, conv_agg);
        // The PAD record goes out first; the CONV record is this step's
        // record below and is charged the whole fusion's host time.
        result.layers.push_back(std::move(agg));
        agg = std::move(conv_agg);
        break;
      }
      case NetworkProgram::Step::Exec::kPadPool:
      case NetworkProgram::Step::Exec::kGlobalPool: {
        // Each image's record carries the layer name into its trace span.
        LayerRun one;
        one.name = spec.name;
        for (std::size_t i = 0; i < n; ++i) {
          fms[i] = run_pad_pool(fms[i], program.pool(step.pool), one);
          fold_layer_run(agg, one);
        }
        break;
      }
      case NetworkProgram::Step::Exec::kConv:
        run_conv_batch(fms, program.conv(step.conv), agg);
        break;
      case NetworkProgram::Step::Exec::kFlatten:
        for (std::size_t i = 0; i < n; ++i) {
          const nn::FeatureMapI8 linear = pack::from_tiled(fms[i]);
          (*flats_cur)[i].assign(linear.data(), linear.data() + linear.size());
        }
        is_flat = true;
        break;
      case NetworkProgram::Step::Exec::kFc: {
        // Host-side in every ExecMode.  Outputs can't alias inputs, so
        // alternate the two reused buffers.
        std::vector<std::vector<std::int8_t>>* next =
            flats_cur == &batch_flats_ ? &batch_flats2_ : &batch_flats_;
        fast_fc_batch(*flats_cur, program.fc(step.fc), *next);
        flats_cur = next;
        break;
      }
      case NetworkProgram::Step::Exec::kSoftmax:
        break;  // host-side, float domain; logits pass through
      case NetworkProgram::Step::Exec::kEltwiseAdd: {
        // Host-side in every ExecMode — one shared kernel, zero cycles,
        // zero counters, so cycle/thread/fast agreement is structural.
        const std::vector<pack::TiledFm>& rhs =
            slots[static_cast<std::size_t>(step.rhs_slot)];
        // In place: fast_eltwise_add's combine is element-wise, so writing
        // the left operand is exact and skips a scratch map per image.
        for (std::size_t i = 0; i < n; ++i)
          core::fast_eltwise_add(fms[i], rhs[i],
                                 program.eltwise(step.eltwise), fms[i]);
        break;
      }
    }
    if (step.save_slot >= 0)
      slots[static_cast<std::size_t>(step.save_slot)] = fms;
    agg.host_wall_us = us_since(step_t0);
    if (keep && !is_flat)
      for (std::size_t i = 0; i < n; ++i)
        result.requests[i].activations.push_back(pack::from_tiled(fms[i]));
    result.layers.push_back(std::move(agg));
  }

  for (std::size_t i = 0; i < n; ++i) {
    result.requests[i].flat_output = is_flat;
    if (is_flat)
      // Moving donates the reused buffer's storage to the result — one small
      // logits-sized allocation per request next batch, part of the warm
      // path's documented constant (DESIGN.md §15).
      result.requests[i].logits = std::move((*flats_cur)[i]);
    else
      result.requests[i].final_fm = pack::from_tiled(fms[i]);
  }
  return result;
}

}  // namespace tsca::driver
