#include "driver/program.hpp"

#include <atomic>
#include <map>
#include <utility>

#include "core/poolgen.hpp"
#include "driver/lowering.hpp"
#include "driver/perf_model.hpp"
#include "pack/tile.hpp"
#include "pack/weight_pack.hpp"

namespace tsca::driver {

std::uint64_t next_program_stamp() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

core::FastConvWeights decode_fast_weights(const WeightImage& wimg,
                                          int in_channels, int kernel) {
  const int wt_extent = (kernel + pack::kTileDim - 1) / pack::kTileDim;
  int out_channels = 0;
  for (int g = 0; g < wimg.groups(); ++g)
    out_channels += wimg.active_filters(g);
  core::FastWeightsBuilder builder(in_channels, wt_extent, wt_extent,
                                   out_channels);
  int oc0 = 0;
  for (int g = 0; g < wimg.groups(); ++g) {
    const int active = wimg.active_filters(g);
    for (int lane = 0; lane < wimg.lanes(); ++lane)
      builder.add_stream(wimg.bytes(g, lane), oc0, active, lane, wimg.lanes(),
                         wimg.ternary());
    oc0 += active;
  }
  return builder.finish();
}

core::PadPoolInstr make_fused_pad_instr(const FusedPadConvLayout& layout) {
  core::PadPoolInstr pi;
  pi.ifm_base = 0;
  pi.ifm_tiles_x = pack::tiles_for(layout.raw.w);
  pi.ifm_tiles_y = pack::tiles_for(layout.raw.h);
  pi.ifm_h = layout.raw.h;
  pi.ifm_w = layout.raw.w;
  pi.channels = layout.raw.c;
  pi.ofm_base = layout.padded_base;
  pi.ofm_tiles_x = pack::tiles_for(layout.padded.w);
  pi.ofm_tiles_y = pack::tiles_for(layout.padded.h);
  pi.ofm_h = layout.padded.h;
  pi.ofm_w = layout.padded.w;
  pi.win = 1;
  pi.stride = 1;
  pi.offset_y = -layout.pad.top;
  pi.offset_x = -layout.pad.left;
  return pi;
}

core::ConvInstr make_fused_conv_instr(const ConvProgram& conv,
                                      const FusedPadConvLayout& layout, int g,
                                      int weight_base_for_group) {
  const WeightImage& wimg = conv.wimg;
  core::ConvInstr ci;
  ci.ifm_base = layout.padded_base;
  ci.ifm_tiles_x = pack::tiles_for(layout.padded.w);
  ci.ifm_tiles_y = pack::tiles_for(layout.padded.h);
  ci.ifm_channels = layout.padded.c;
  ci.weight_base = weight_base_for_group;
  ci.ofm_base = layout.ofm_base;
  ci.ofm_tiles_x = pack::tiles_for(layout.out.w);
  ci.ofm_tiles_y = pack::tiles_for(layout.out.h);
  ci.oc0 = g * wimg.group_size();
  ci.active_filters = wimg.active_filters(g);
  ci.kernel_h = ci.kernel_w = layout.kernel;
  for (int k = 0; k < ci.active_filters; ++k) {
    const std::size_t oc = static_cast<std::size_t>(ci.oc0 + k);
    ci.bias[static_cast<std::size_t>(k)] =
        oc < conv.bias.size() ? conv.bias[oc] : 0;
  }
  ci.shift = conv.rq.shift;
  ci.relu = conv.rq.relu;
  ci.ternary_weights = wimg.ternary();
  return ci;
}

namespace {

// Fills conv.fastw and layout.predicted_* for a fused pad+conv layer.
void fill_fused_predictions(const core::ArchConfig& cfg, ConvProgram& conv,
                            FusedPadConvLayout& layout) {
  conv.fastw = decode_fast_weights(conv.wimg, layout.padded.c, layout.kernel);
  const PerfModel model(cfg);
  const core::PadPoolInstr pi = make_fused_pad_instr(layout);
  layout.predicted_pad_cycles = static_cast<std::uint64_t>(
      model.pool_instr_cycles(pi) + model.constants().batch_overhead);

  core::CounterSnapshot& p = layout.predicted;
  p = core::CounterSnapshot{};
  std::int64_t conv_cycles = model.constants().batch_overhead;
  int base = layout.weight_base;
  for (int g = 0; g < conv.wimg.groups(); ++g) {
    const core::ConvInstr ci = make_fused_conv_instr(conv, layout, g, base);
    conv_cycles += model.conv_instr_cycles(ci, conv.wimg, g);
    p.conv_instrs += 1;
    p.positions += ci.positions();
    base += conv.wimg.aligned_words(g);
  }
  layout.predicted_conv_cycles = static_cast<std::uint64_t>(conv_cycles);

  // Counter attribution matches the engine: the whole fusion's work lands on
  // the conv LayerRun (the pad run reports zero counters there too).
  p.pad_instrs = 1;
  p.pool_ops = core::count_pool_steps(pi) * pi.channels;
  const int wt_extent =
      (layout.kernel + pack::kTileDim - 1) / pack::kTileDim;
  const std::int64_t positions_total =
      static_cast<std::int64_t>(pack::tiles_for(layout.out.h)) *
      pack::tiles_for(layout.out.w);
  ConvPerf work;
  model.zero_skip_counters(conv.wimg, layout.padded.c, wt_extent * wt_extent,
                           positions_total, work);
  p.macs_performed = work.macs_performed;
  p.weight_cmds = work.weight_cmds;
  p.weight_bubbles = work.weight_bubbles;
}

}  // namespace

// Decodes every stripe's fast-path pool plan and caches the PerfModel
// prediction, so neither executor derives them again per request/image.
void finalize_pool_plan(const core::ArchConfig& cfg, PoolPlan& plan) {
  plan.fastp.reserve(plan.stripes.size());
  for (const PoolStripe& stripe : plan.stripes)
    plan.fastp.push_back(
        core::make_fast_pool_plan(make_pool_instr(plan, stripe)));
  const PoolPerf perf = PerfModel(cfg).pool_plan_perf(plan);
  plan.predicted_cycles = static_cast<std::uint64_t>(perf.cycles);
  plan.predicted_ops = perf.ops;
}

PoolPlan compile_pool(const core::ArchConfig& cfg, const nn::FmShape& in_shape,
                      const nn::FmShape& out_shape, core::Opcode op, int win,
                      int stride, int offset_y, int offset_x) {
  PoolPlan plan = plan_pool(cfg, in_shape, out_shape, op, win, stride,
                            offset_y, offset_x);
  finalize_pool_plan(cfg, plan);
  return plan;
}

ConvProgram compile_conv(const core::ArchConfig& cfg,
                         const nn::FmShape& in_shape,
                         const pack::PackedFilters& packed,
                         std::vector<std::int32_t> bias,
                         const nn::Requant& rq) {
  TSCA_CHECK(packed.shape().ic == in_shape.c,
             "filter ic " << packed.shape().ic << " != input channels "
                          << in_shape.c);
  TSCA_CHECK(packed.shape().kh == packed.shape().kw,
             "square kernels only (paper uses 3x3)");
  ConvProgram prog;
  prog.wimg = WeightImage(packed, cfg.lanes, cfg.group);
  prog.plan = plan_conv(cfg, in_shape, packed.shape().oc, packed.shape().kh,
                        prog.wimg);
  prog.bias = std::move(bias);
  prog.rq = rq;
  prog.macs = conv_macs(in_shape, packed.shape().oc, packed.shape().kh);
  prog.fastw = decode_fast_weights(prog.wimg, in_shape.c, packed.shape().kh);
  const ConvPerf perf = PerfModel(cfg).conv_plan_perf(prog.plan, prog.wimg);
  prog.predicted_cycles = static_cast<std::uint64_t>(perf.cycles);
  prog.predicted.macs_performed = perf.macs_performed;
  prog.predicted.weight_cmds = perf.weight_cmds;
  prog.predicted.weight_bubbles = perf.weight_bubbles;
  prog.predicted.conv_instrs = perf.instructions;
  prog.predicted.positions = perf.positions;
  return prog;
}

ConvProgram compile_fc_conv(const core::ArchConfig& cfg, int in_dim,
                            int out_dim,
                            const std::vector<std::int8_t>& weights,
                            const std::vector<std::int32_t>& bias,
                            const nn::Requant& rq) {
  TSCA_CHECK(in_dim > 0 && out_dim > 0);
  TSCA_CHECK(weights.size() == static_cast<std::size_t>(in_dim) *
                                   static_cast<std::size_t>(out_dim));
  nn::FilterBankI8 bank({out_dim, in_dim, 1, 1});
  for (int o = 0; o < out_dim; ++o)
    for (int c = 0; c < in_dim; ++c)
      bank.at(o, c, 0, 0) =
          weights[static_cast<std::size_t>(o) *
                      static_cast<std::size_t>(in_dim) +
                  static_cast<std::size_t>(c)];
  return compile_conv(cfg, {in_dim, 1, 1}, pack::pack_filters(bank), bias, rq);
}

std::optional<FusedPadConvLayout> plan_fused_pad_conv(
    const core::ArchConfig& cfg, const nn::FmShape& raw,
    const nn::Padding& pad, int kernel, int out_channels,
    const WeightImage& wimg) {
  FusedPadConvLayout layout;
  layout.pad = pad;
  layout.raw = raw;
  layout.padded = {raw.c, raw.h + pad.top + pad.bottom,
                   raw.w + pad.left + pad.right};
  layout.kernel = kernel;
  if (layout.padded.h < kernel || layout.padded.w < kernel) return std::nullopt;
  layout.out = {out_channels, layout.padded.h - kernel + 1,
                layout.padded.w - kernel + 1};

  // On-chip layout: raw input | padded map | OFM | weight chunk.  Everything
  // must fit unstriped, with all filter groups' weights resident at once.
  const int lanes = cfg.lanes;
  const int slots_in = (raw.c + lanes - 1) / lanes;
  const int slots_out = (layout.out.c + lanes - 1) / lanes;
  const int raw_words =
      slots_in * pack::tiles_for(raw.h) * pack::tiles_for(raw.w);
  const int padded_words = slots_in * pack::tiles_for(layout.padded.h) *
                           pack::tiles_for(layout.padded.w);
  const int out_words = slots_out * pack::tiles_for(layout.out.h) *
                        pack::tiles_for(layout.out.w);
  int weight_words = 0;
  for (int g = 0; g < wimg.groups(); ++g)
    weight_words += wimg.aligned_words(g);
  if (raw_words + padded_words + out_words + weight_words > cfg.bank_words)
    return std::nullopt;

  layout.padded_base = raw_words;
  layout.ofm_base = raw_words + padded_words;
  layout.weight_base = layout.ofm_base + out_words;
  return layout;
}

std::optional<FusedPadConv> compile_fused_pad_conv(
    const core::ArchConfig& cfg, const nn::FmShape& raw,
    const nn::Padding& pad, const pack::PackedFilters& packed,
    std::vector<std::int32_t> bias, const nn::Requant& rq) {
  TSCA_CHECK(packed.shape().ic == raw.c);
  TSCA_CHECK(packed.shape().kh == packed.shape().kw);
  FusedPadConv fused;
  fused.conv.wimg = WeightImage(packed, cfg.lanes, cfg.group);
  const std::optional<FusedPadConvLayout> layout = plan_fused_pad_conv(
      cfg, raw, pad, packed.shape().kh, packed.shape().oc, fused.conv.wimg);
  if (!layout.has_value()) return std::nullopt;
  fused.layout = *layout;
  fused.conv.bias = std::move(bias);
  fused.conv.rq = rq;
  fused.conv.macs =
      conv_macs(fused.layout.padded, fused.layout.out.c, fused.layout.kernel);
  fill_fused_predictions(cfg, fused.conv, fused.layout);
  return fused;
}

NetworkProgram NetworkProgram::compile(const nn::Network& net,
                                       const quant::QuantizedModel& model,
                                       const core::ArchConfig& cfg,
                                       const ProgramOptions& options) {
  register_builtin_lowerings();

  NetworkProgram program;
  program.net_ = net;
  program.cfg_ = cfg;
  program.options_ = options;
  program.stamp_ = next_program_stamp();

  // Pre-scan residual skips: each distinct skip source gets a tensor slot
  // the execution keeps live from the source step to its consuming add.
  std::map<std::size_t, int> slots;
  for (const nn::LayerSpec& spec : net.layers()) {
    if (spec.kind != nn::LayerKind::kEltwiseAdd) continue;
    TSCA_CHECK(spec.eltwise.from >= 0, "eltwise skip source unset");
    const std::size_t from = static_cast<std::size_t>(spec.eltwise.from);
    if (slots.find(from) == slots.end())
      slots.emplace(from, static_cast<int>(slots.size()));
  }
  program.slot_count_ = static_cast<int>(slots.size());

  // Walk the layers, dispatching each to its registered lowering.  The
  // lowering appends artifacts/steps through the context and reports how
  // many layers it consumed (pad→conv fusion consumes two).
  nn::FmShape fm = net.input_shape();
  bool is_flat = false;
  for (std::size_t i = 0; i < net.layers().size();) {
    const nn::LayerSpec& spec = net.layers()[i];
    const LoweringFn lowering = LoweringRegistry::instance().find(spec.kind);
    if (!lowering)
      throw ConfigError(std::string("no lowering registered for layer kind ") +
                        nn::layer_kind_name(spec.kind) + " (layer " +
                        spec.name + ")");
    LoweringContext ctx(program, model, i, slots);
    ctx.fm = fm;
    ctx.is_flat = is_flat;
    const std::size_t steps_before = program.steps_.size();
    lowering(ctx);
    TSCA_CHECK(ctx.consumed >= 1, "lowering consumed no layers");
    fm = ctx.fm;
    is_flat = ctx.is_flat;
    // The step carrying the output of the last consumed layer is the one a
    // residual skip reads from; stamp its slot if anybody needs it.
    const std::size_t last = i + static_cast<std::size_t>(ctx.consumed) - 1;
    const auto slot = slots.find(last);
    if (slot != slots.end()) {
      TSCA_CHECK(program.steps_.size() > steps_before,
                 "skip source layer " << last << " produced no step");
      program.steps_.back().save_slot = slot->second;
    }
    i += static_cast<std::size_t>(ctx.consumed);
  }

  // Concatenate every conv layer's serialized streams into the DDR image.
  // Offsets are recorded per (group, lane) so executors can DMA a chunk's
  // streams straight from the resident image.
  for (ConvProgram& conv : program.convs_) {
    conv.owner = program.stamp_;
    conv.ddr_offset.resize(static_cast<std::size_t>(conv.wimg.groups()) *
                           static_cast<std::size_t>(conv.wimg.lanes()));
    for (int g = 0; g < conv.wimg.groups(); ++g) {
      for (int lane = 0; lane < conv.wimg.lanes(); ++lane) {
        const std::vector<std::uint8_t>& bytes = conv.wimg.bytes(g, lane);
        conv.ddr_offset[static_cast<std::size_t>(g) *
                            static_cast<std::size_t>(conv.wimg.lanes()) +
                        static_cast<std::size_t>(lane)] =
            program.ddr_image_.size();
        program.ddr_image_.insert(program.ddr_image_.end(), bytes.begin(),
                                  bytes.end());
      }
    }
  }
  return program;
}

}  // namespace tsca::driver
