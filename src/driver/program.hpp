// Ahead-of-time network compilation — the compile/execute split of the
// paper's host framework (§IV-C).
//
// The paper prepares weights and instruction schedules once, offline; the
// ARM driver then only stages data and fires batches.  NetworkProgram makes
// that split explicit in the runtime: compile(net, model, cfg) performs every
// per-layer preparation exactly once —
//
//   * quantization-packs each conv layer's filters (pack::pack_filters),
//   * serializes the per-(group, lane) weight streams (WeightImage),
//   * plans striping / bank layout / weight-chunk schedules (ConvPlan,
//     PoolPlan),
//   * resolves each pad→conv fusion decision (the fit check is a pure
//     function of shapes and the ArchConfig, so it is compile-time
//     decidable),
//   * copies the host-side FC weights, and
//   * concatenates every serialized weight stream into one DDR image with
//     per-stream offsets, so executors can DMA weights bank-ward from a
//     resident image instead of re-writing DDR on every call —
//
// producing an immutable artifact that any number of executions (and any
// number of pool workers, concurrently) can share by const reference.
// Execution through a program is bit-identical to executing its standalone
// layer artifacts: same instructions, same cycle counts, same counters, and
// the same DMA statistics (a weight transfer from the resident image moves
// the same bytes in the same number of transfers as one staged through the
// bump allocator).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/counters.hpp"
#include "core/fastpath.hpp"
#include "driver/compiler.hpp"
#include "nn/network.hpp"
#include "quant/quantize.hpp"

namespace tsca::driver {

// One conv layer compiled against an (ArchConfig, input shape) pair: the
// serialized weight streams, the striping/chunk schedule, and the layer's
// bias/requant constants.  Immutable after compilation.
struct ConvProgram {
  WeightImage wimg;
  ConvPlan plan;  // empty stripes when the layer only runs fused (pad+conv)
  std::vector<std::int32_t> bias;
  nn::Requant rq;
  std::int64_t macs = 0;  // dense MACs over the (padded) input

  // DDR residency: when this layer belongs to a NetworkProgram, `owner` is
  // the program's stamp and `ddr_offset[g * lanes + lane]` locates the
  // (group, lane) stream inside the program's DDR image.  Standalone layers
  // (owner == 0) stage weights through the bump allocator instead.
  std::uint64_t owner = 0;
  std::vector<std::uint64_t> ddr_offset;

  // ExecMode::kFast artifacts, filled at compile time: the weight streams
  // decoded into the fast executor's flat form, and the PerfModel prediction
  // that stands in for measured cycles/counters (LayerRun.cycles_predicted).
  // Only meaningful for layers with a striped plan (fused-only layers carry
  // their predictions on the FusedPadConvLayout instead).
  core::FastConvWeights fastw;
  std::uint64_t predicted_cycles = 0;
  core::CounterSnapshot predicted;

  std::uint64_t stream_ddr_offset(int g, int lane) const {
    const std::size_t i =
        static_cast<std::size_t>(g) * static_cast<std::size_t>(wimg.lanes()) +
        static_cast<std::size_t>(lane);
    TSCA_CHECK(i < ddr_offset.size(), "stream offset out of range");
    return ddr_offset[i];
  }
};

// Compiles one standalone conv layer: weight streams, striped plan, and the
// fast path's decoded weights and predictions.  Throws on filters that do
// not match the input's channels.
ConvProgram compile_conv(const core::ArchConfig& cfg,
                         const nn::FmShape& in_shape,
                         const pack::PackedFilters& packed,
                         std::vector<std::int32_t> bias, const nn::Requant& rq);

// Lowers a fully-connected layer (row-major [out][in] weights) to a 1x1
// convolution over a 1x1 feature map and compiles it (for run_fc_as_conv).
ConvProgram compile_fc_conv(const core::ArchConfig& cfg, int in_dim,
                            int out_dim,
                            const std::vector<std::int8_t>& weights,
                            const std::vector<std::int32_t>& bias,
                            const nn::Requant& rq);

// On-chip layout of a fused PAD+CONV executed as two dependent batches with
// the padded map living only on chip:
//   [0, raw)  raw input | [padded_base) padded map | [ofm_base) OFM |
//   [weight_base) all filter groups' streams, resident at once.
struct FusedPadConvLayout {
  nn::Padding pad;
  nn::FmShape raw;
  nn::FmShape padded;
  nn::FmShape out;
  int kernel = 3;
  int padded_base = 0;
  int ofm_base = 0;
  int weight_base = 0;

  // ExecMode::kFast predictions, mirroring the engine's split: the pad
  // batch's cycles vs the conv batch's, with every work counter attributed
  // to the conv side (the engine snapshots counters across the whole
  // fusion, so the pad LayerRun reports zero counters there too).
  std::uint64_t predicted_pad_cycles = 0;
  std::uint64_t predicted_conv_cycles = 0;
  core::CounterSnapshot predicted;
};

// The PAD instruction of a fused pad+conv batch — shared by the engine
// executor, the fast path and the prediction model, so all three agree on
// the exact geometry.
core::PadPoolInstr make_fused_pad_instr(const FusedPadConvLayout& layout);

// The CONV instruction of filter group g in a fused batch.
core::ConvInstr make_fused_conv_instr(const ConvProgram& conv,
                                      const FusedPadConvLayout& layout, int g,
                                      int weight_base_for_group);

// Decodes a WeightImage into the fast executor's flat (value, offset) form,
// validating every stream (offsets sorted and < 16, streams fully consumed).
core::FastConvWeights decode_fast_weights(const WeightImage& wimg,
                                          int in_channels, int kernel);

// Fit check + layout.  Returns nullopt when the fused form does not fit on
// chip (the caller falls back to a separate pad layer + striped conv).  Pure
// in (cfg, shapes, weight stream sizes), so compile-time fusion decisions
// are guaranteed to match what the run-time check would have decided.
std::optional<FusedPadConvLayout> plan_fused_pad_conv(
    const core::ArchConfig& cfg, const nn::FmShape& raw,
    const nn::Padding& pad, int kernel, int out_channels,
    const WeightImage& wimg);

// A PAD and the following CONV compiled as one on-chip fusion: the conv's
// weight streams (no striped plan) plus the fused layout, with the fast
// path's decoded weights and predictions filled in.
struct FusedPadConv {
  ConvProgram conv;
  FusedPadConvLayout layout;
};

// Compiles the fusion, or returns nullopt when it does not fit on chip
// (plan_fused_pad_conv); callers then keep the two layers separate.
std::optional<FusedPadConv> compile_fused_pad_conv(
    const core::ArchConfig& cfg, const nn::FmShape& raw,
    const nn::Padding& pad, const pack::PackedFilters& packed,
    std::vector<std::int32_t> bias, const nn::Requant& rq);

// Host-side fully-connected layer: weights copied out of the model so a
// program execution never touches the QuantizedModel again.
struct FcProgram {
  std::vector<std::int8_t> weights;  // row-major [out][in]
  std::vector<std::int32_t> bias;
  nn::Requant rq;
  int out_dim = 0;
};

struct ProgramOptions {
  // Fuse PAD directly into the following CONV batch when both fit on chip
  // unstriped: the padded map never round-trips through DDR (the banks
  // persist between instructions).  Resolved at compile time and baked
  // into the step list; layers that need striping stay separate.
  bool fuse_pad_conv = true;
};

// The compiled network: an immutable step list plus the per-layer artifacts
// each step consumes.  Compile once, execute many times — concurrently from
// any number of threads (all accessors are const and the object is never
// mutated after compile() returns).
class NetworkProgram {
 public:
  struct Step {
    enum class Exec {
      kFusedPadConv,  // pad layer + following conv as one on-chip fusion
      kPadPool,       // standalone PAD or POOL via a PoolPlan
      kConv,          // striped conv via a ConvProgram
      kFlatten,       // host
      kFc,            // host
      kSoftmax,       // host (logits pass through)
      kEltwiseAdd,    // host residual add via an EltwiseQ + tensor slot
      kGlobalPool,    // whole-map pool via a PoolPlan (kPadPool machinery)
    };
    Exec exec = Exec::kPadPool;
    std::size_t layer = 0;  // index into net().layers(); for kFusedPadConv
                            // this is the pad layer, layer + 1 the conv
    int conv = -1;          // conv() index (kConv, kFusedPadConv)
    int pool = -1;          // pool() index (kPadPool, kGlobalPool)
    int fused = -1;         // fused() index (kFusedPadConv)
    int fc = -1;            // fc() index (kFc)
    int eltwise = -1;       // eltwise() index (kEltwiseAdd)
    // Tensor-slot plumbing for residual skips: a step whose output is a
    // later step's second operand writes it into slot `save_slot`;
    // kEltwiseAdd reads its right-hand operand from slot `rhs_slot`.
    int save_slot = -1;
    int rhs_slot = -1;
  };

  // One-time compilation.  Throws ConfigError on inconsistent topology or a
  // layer that cannot fit on chip — the same errors the per-call path would
  // raise, just moved out of the request path.
  static NetworkProgram compile(const nn::Network& net,
                                const quant::QuantizedModel& model,
                                const core::ArchConfig& cfg,
                                const ProgramOptions& options = {});

  const nn::Network& net() const { return net_; }
  const core::ArchConfig& config() const { return cfg_; }
  const ProgramOptions& options() const { return options_; }
  const std::vector<Step>& steps() const { return steps_; }

  const ConvProgram& conv(int i) const {
    return convs_[static_cast<std::size_t>(i)];
  }
  const PoolPlan& pool(int i) const {
    return pools_[static_cast<std::size_t>(i)];
  }
  const FusedPadConvLayout& fused(int i) const {
    return fused_[static_cast<std::size_t>(i)];
  }
  const FcProgram& fc(int i) const { return fcs_[static_cast<std::size_t>(i)]; }
  const nn::EltwiseQ& eltwise(int i) const {
    return eltwise_[static_cast<std::size_t>(i)];
  }

  // Number of tensor slots an execution must hold live for residual skips.
  int slot_count() const { return slot_count_; }

  // Concatenation of every conv layer's serialized weight streams.  Runtimes
  // write it into a context's DDR once (at address 0) and then DMA weight
  // chunks straight out of it on every execution.
  const std::vector<std::uint8_t>& ddr_image() const { return ddr_image_; }

  // Unique per compile() call — the key runtimes use to decide whether the
  // image already resident in a context's DDR is this program's.
  std::uint64_t stamp() const { return stamp_; }

 private:
  NetworkProgram() = default;

  friend class LoweringContext;  // per-layer lowerings build these vectors
  friend class CompileCache;     // (de)serializes the compiled artifact

  nn::Network net_{nn::FmShape{}};
  core::ArchConfig cfg_;
  ProgramOptions options_;
  std::vector<Step> steps_;
  std::vector<ConvProgram> convs_;
  std::vector<PoolPlan> pools_;
  std::vector<FusedPadConvLayout> fused_;
  std::vector<FcProgram> fcs_;
  std::vector<nn::EltwiseQ> eltwise_;
  int slot_count_ = 0;
  std::vector<std::uint8_t> ddr_image_;
  std::uint64_t stamp_ = 0;
};

// Plans a PAD (win=1, stride=1, offset=−pad) or POOL layer and finalizes it
// (finalize_pool_plan): the pad/pool counterpart of compile_conv, and the
// only plan form the executors accept in ExecMode::kFast.
PoolPlan compile_pool(const core::ArchConfig& cfg, const nn::FmShape& in_shape,
                      const nn::FmShape& out_shape, core::Opcode op, int win,
                      int stride, int offset_y, int offset_x);

// Decodes every stripe's fast-path pool plan and caches the PerfModel
// prediction, so neither executor derives them again per request/image.
// compile_pool and the CompileCache loader call it.
void finalize_pool_plan(const core::ArchConfig& cfg, PoolPlan& plan);

// Mints a process-unique program stamp.  compile() takes one per program;
// the CompileCache takes a fresh one for every deserialized program so
// runtimes restage exactly as they would after an in-process compile.
std::uint64_t next_program_stamp();

}  // namespace tsca::driver
