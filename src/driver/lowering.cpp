#include "driver/lowering.hpp"

#include <utility>

#include "pack/weight_pack.hpp"

namespace tsca::driver {

const nn::Network& LoweringContext::net() const { return program_.net_; }
const quant::QuantizedModel& LoweringContext::model() const { return model_; }
const core::ArchConfig& LoweringContext::cfg() const { return program_.cfg_; }
const ProgramOptions& LoweringContext::options() const {
  return program_.options_;
}

const nn::LayerSpec& LoweringContext::spec() const {
  return program_.net_.layers()[index_];
}

bool LoweringContext::layer_needs_slot(std::size_t layer) const {
  return slots_.find(layer) != slots_.end();
}

int LoweringContext::slot_for_layer(std::size_t layer) const {
  const auto it = slots_.find(layer);
  return it == slots_.end() ? -1 : it->second;
}

int LoweringContext::add_conv(ConvProgram conv) {
  program_.convs_.push_back(std::move(conv));
  return static_cast<int>(program_.convs_.size()) - 1;
}

int LoweringContext::add_pool(PoolPlan plan) {
  program_.pools_.push_back(std::move(plan));
  return static_cast<int>(program_.pools_.size()) - 1;
}

int LoweringContext::add_fused(FusedPadConvLayout layout) {
  program_.fused_.push_back(std::move(layout));
  return static_cast<int>(program_.fused_.size()) - 1;
}

int LoweringContext::add_fc(FcProgram fc) {
  program_.fcs_.push_back(std::move(fc));
  return static_cast<int>(program_.fcs_.size()) - 1;
}

int LoweringContext::add_eltwise(nn::EltwiseQ q) {
  program_.eltwise_.push_back(q);
  return static_cast<int>(program_.eltwise_.size()) - 1;
}

void LoweringContext::push_step(NetworkProgram::Step step) {
  step.layer = index_;
  program_.steps_.push_back(step);
}

LoweringRegistry& LoweringRegistry::instance() {
  static LoweringRegistry registry;
  return registry;
}

LoweringFn LoweringRegistry::exchange(nn::LayerKind kind, LoweringFn fn) {
  const int key = static_cast<int>(kind);
  std::lock_guard<std::mutex> lock(mu_);
  LoweringFn previous;
  const auto it = map_.find(key);
  if (it != map_.end()) previous = std::move(it->second);
  if (fn)
    map_[key] = std::move(fn);
  else if (it != map_.end())
    map_.erase(it);
  return previous;
}

LoweringFn LoweringRegistry::find(nn::LayerKind kind) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = map_.find(static_cast<int>(kind));
  return it == map_.end() ? LoweringFn{} : it->second;
}

namespace {

using Step = NetworkProgram::Step;

void lower_pad(LoweringContext& ctx) {
  TSCA_CHECK(!ctx.is_flat, "pad after flatten");
  const nn::LayerSpec& spec = ctx.spec();
  const nn::Network& net = ctx.net();
  const std::size_t i = ctx.index();
  // Fuse with a directly following conv when both fit on chip (the
  // plan_fused_pad_conv fit predicate), decided here once.  Fusion
  // hides the padded map inside the batch, so it must be declined when some
  // residual skip needs this pad's output as a live tensor slot.
  if (ctx.options().fuse_pad_conv && i + 1 < net.layers().size() &&
      net.layers()[i + 1].kind == nn::LayerKind::kConv &&
      !ctx.layer_needs_slot(i)) {
    std::optional<FusedPadConv> fused = compile_fused_pad_conv(
        ctx.cfg(), ctx.fm, spec.pad,
        pack::pack_filters(ctx.model().weights.conv[i + 1]),
        ctx.model().weights.conv_bias[i + 1],
        ctx.model().weights.conv_requant[i + 1]);
    if (fused.has_value()) {
      ctx.fm = fused->layout.out;
      Step step;
      step.exec = Step::Exec::kFusedPadConv;
      step.conv = ctx.add_conv(std::move(fused->conv));
      step.fused = ctx.add_fused(std::move(fused->layout));
      ctx.push_step(step);
      ctx.consumed = 2;  // the conv layer was consumed
      return;
    }
    // Does not fit fused: fall through to a standalone pad step; the conv
    // layer is compiled on its own iteration (its WeightImage is rebuilt
    // there against the striped plan — compile-time only).
  }
  const nn::FmShape out{ctx.fm.c, ctx.fm.h + spec.pad.top + spec.pad.bottom,
                        ctx.fm.w + spec.pad.left + spec.pad.right};
  Step step;
  step.exec = Step::Exec::kPadPool;
  step.pool = ctx.add_pool(compile_pool(ctx.cfg(), ctx.fm, out,
                                        core::Opcode::kPad, 1, 1,
                                        -spec.pad.top, -spec.pad.left));
  ctx.push_step(step);
  ctx.fm = out;
}

void lower_conv(LoweringContext& ctx) {
  TSCA_CHECK(!ctx.is_flat, "conv after flatten");
  const std::size_t i = ctx.index();
  ConvProgram conv = compile_conv(
      ctx.cfg(), ctx.fm, pack::pack_filters(ctx.model().weights.conv[i]),
      ctx.model().weights.conv_bias[i], ctx.model().weights.conv_requant[i]);
  ctx.fm = conv.plan.out_shape;
  Step step;
  step.exec = Step::Exec::kConv;
  step.conv = ctx.add_conv(std::move(conv));
  ctx.push_step(step);
}

void lower_maxpool(LoweringContext& ctx) {
  TSCA_CHECK(!ctx.is_flat, "pool after flatten");
  const nn::PoolParams& pool = ctx.spec().pool;
  const nn::FmShape out{ctx.fm.c,
                        nn::conv_out_extent(ctx.fm.h, pool.size, pool.stride),
                        nn::conv_out_extent(ctx.fm.w, pool.size, pool.stride)};
  Step step;
  step.exec = Step::Exec::kPadPool;
  step.pool = ctx.add_pool(compile_pool(ctx.cfg(), ctx.fm, out,
                                        core::Opcode::kPool, pool.size,
                                        pool.stride, 0, 0));
  ctx.push_step(step);
  ctx.fm = out;
}

void lower_global_pool(LoweringContext& ctx) {
  TSCA_CHECK(!ctx.is_flat, "global pool after flatten");
  TSCA_CHECK(ctx.fm.h == ctx.fm.w,
             "global pool needs a square map: " << ctx.fm.h << "x" << ctx.fm.w);
  const nn::FmShape out{ctx.fm.c, 1, 1};
  Step step;
  step.exec = Step::Exec::kGlobalPool;
  step.pool = ctx.add_pool(compile_pool(ctx.cfg(), ctx.fm, out,
                                        core::Opcode::kPool, ctx.fm.h,
                                        ctx.fm.h, 0, 0));
  ctx.push_step(step);
  ctx.fm = out;
}

void lower_eltwise_add(LoweringContext& ctx) {
  TSCA_CHECK(!ctx.is_flat, "eltwise add after flatten");
  const std::size_t i = ctx.index();
  const int from = ctx.spec().eltwise.from;
  TSCA_CHECK(from >= 0 && from < static_cast<int>(i),
             "eltwise skip source out of range at layer " << i);
  const int slot = ctx.slot_for_layer(static_cast<std::size_t>(from));
  TSCA_CHECK(slot >= 0, "eltwise skip source has no tensor slot");
  TSCA_CHECK(i < ctx.model().weights.eltwise.size(),
             "missing eltwise requant for layer " << i);
  Step step;
  step.exec = Step::Exec::kEltwiseAdd;
  step.rhs_slot = slot;
  step.eltwise = ctx.add_eltwise(ctx.model().weights.eltwise[i]);
  ctx.push_step(step);
}

void lower_flatten(LoweringContext& ctx) {
  Step step;
  step.exec = Step::Exec::kFlatten;
  ctx.push_step(step);
  ctx.is_flat = true;
}

void lower_fc(LoweringContext& ctx) {
  TSCA_CHECK(ctx.is_flat, "fc before flatten");
  const std::size_t i = ctx.index();
  Step step;
  step.exec = Step::Exec::kFc;
  step.fc = ctx.add_fc(FcProgram{ctx.model().weights.fc[i],
                                 ctx.model().weights.fc_bias[i],
                                 ctx.model().weights.fc_requant[i],
                                 ctx.spec().fc.out_dim});
  ctx.push_step(step);
}

void lower_softmax(LoweringContext& ctx) {
  Step step;
  step.exec = Step::Exec::kSoftmax;
  ctx.push_step(step);
}

}  // namespace

void register_builtin_lowerings() {
  static const bool registered = [] {
    LoweringRegistry& reg = LoweringRegistry::instance();
    reg.exchange(nn::LayerKind::kPad, lower_pad);
    reg.exchange(nn::LayerKind::kConv, lower_conv);
    reg.exchange(nn::LayerKind::kMaxPool, lower_maxpool);
    reg.exchange(nn::LayerKind::kGlobalPool, lower_global_pool);
    reg.exchange(nn::LayerKind::kEltwiseAdd, lower_eltwise_add);
    reg.exchange(nn::LayerKind::kFlatten, lower_flatten);
    reg.exchange(nn::LayerKind::kFullyConnected, lower_fc);
    reg.exchange(nn::LayerKind::kSoftmax, lower_softmax);
    return true;
  }();
  (void)registered;
}

}  // namespace tsca::driver
