// Pluggable per-layer lowering — the compiler's extension point.
//
// NetworkProgram::compile used to be one hard-coded switch over LayerKind;
// every new layer meant editing the compiler.  It is now a walk that
// dispatches each layer to a lowering function looked up by kind in a
// process-wide registry.  A lowering receives a LoweringContext — the
// compile-time cursor (current shape, flat flag, layer index) plus builder
// methods that append artifacts (ConvProgram, PoolPlan, …) and steps to the
// program under construction — and advances the walk by the number of
// layers it consumed (pad→conv fusion consumes two).
//
// The built-in kinds register themselves on first compile; tests and
// downstream code can add kinds (or temporarily override built-ins) without
// touching this file:
//
//   driver::ScopedLowering guard(my_kind, [](driver::LoweringContext& ctx) {
//     auto plan = compile_pool(ctx.cfg(), ctx.fm, ...);
//     NetworkProgram::Step step;
//     step.exec = NetworkProgram::Step::Exec::kPadPool;
//     step.pool = ctx.add_pool(std::move(plan));
//     ctx.push_step(step);
//   });
//
// Residual skips ride on tensor slots: compile() pre-scans kEltwiseAdd
// layers and assigns each distinct skip source a slot id.  The step emitted
// for a source layer is stamped `save_slot`; the eltwise lowering reads
// `slot_for_layer(from)` into its step's `rhs_slot`.  A lowering that hides
// a layer's output inside a fusion must decline when `layer_needs_slot`
// says that output is somebody's skip operand (the pad→conv fusion does).
#pragma once

#include <functional>
#include <map>
#include <mutex>

#include "driver/program.hpp"

namespace tsca::driver {

class LoweringContext;
using LoweringFn = std::function<void(LoweringContext&)>;

// The compile-time cursor handed to each lowering.  Mutable fields are the
// walk state the lowering advances; builder methods append to the program.
class LoweringContext {
 public:
  // Output shape entering this layer; the lowering updates it to the shape
  // leaving the last layer it consumed.
  nn::FmShape fm;
  // Whether the activation has been flattened to a host-side vector.
  bool is_flat = false;
  // How many layers this lowering consumed (default 1; fusion sets 2).
  int consumed = 1;

  const nn::Network& net() const;
  const quant::QuantizedModel& model() const;
  const core::ArchConfig& cfg() const;
  const ProgramOptions& options() const;
  std::size_t index() const { return index_; }
  const nn::LayerSpec& spec() const;

  // Slot bookkeeping for residual skips (see file comment).
  bool layer_needs_slot(std::size_t layer) const;
  int slot_for_layer(std::size_t layer) const;  // -1 when not a skip source

  // Builders: append an artifact, return its index for the Step fields.
  int add_conv(ConvProgram conv);
  int add_pool(PoolPlan plan);  // a compile_pool result
  int add_fused(FusedPadConvLayout layout);
  int add_fc(FcProgram fc);
  int add_eltwise(nn::EltwiseQ q);

  // Appends a step; `step.layer` is stamped with index() automatically.
  void push_step(NetworkProgram::Step step);

 private:
  friend class NetworkProgram;
  LoweringContext(NetworkProgram& program, const quant::QuantizedModel& model,
                  std::size_t index, const std::map<std::size_t, int>& slots)
      : program_(program), model_(model), index_(index), slots_(slots) {}

  NetworkProgram& program_;
  const quant::QuantizedModel& model_;
  std::size_t index_;
  const std::map<std::size_t, int>& slots_;
};

// Process-wide kind → lowering table.  Keyed by int so tests can register
// kinds outside the LayerKind enum (cast in via add_layer's escape hatch).
class LoweringRegistry {
 public:
  static LoweringRegistry& instance();

  // Installs `fn` for `kind`, returning the previous lowering (null when the
  // kind was unregistered).  A null `fn` unregisters the kind.
  LoweringFn exchange(nn::LayerKind kind, LoweringFn fn);

  // The lowering for `kind`, or null when none is registered.
  LoweringFn find(nn::LayerKind kind) const;

 private:
  mutable std::mutex mu_;
  std::map<int, LoweringFn> map_;
};

// RAII registration: installs a lowering for the guard's lifetime and
// restores whatever was there before (tests override built-ins safely).
class ScopedLowering {
 public:
  ScopedLowering(nn::LayerKind kind, LoweringFn fn)
      : kind_(kind),
        previous_(LoweringRegistry::instance().exchange(kind, std::move(fn))) {}
  ~ScopedLowering() {
    LoweringRegistry::instance().exchange(kind_, std::move(previous_));
  }
  ScopedLowering(const ScopedLowering&) = delete;
  ScopedLowering& operator=(const ScopedLowering&) = delete;

 private:
  nn::LayerKind kind_;
  LoweringFn previous_;
};

// Registers the built-in lowerings (pad, conv, pool, flatten, fc, softmax,
// eltwise add, global pool).  Idempotent; compile() calls it, and it never
// overwrites an already-registered kind, so overrides survive.
void register_builtin_lowerings();

}  // namespace tsca::driver
