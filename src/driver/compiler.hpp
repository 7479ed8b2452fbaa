// Layer → instruction-stream compiler (the host-side "framework" of §IV-C).
//
// Decides striping (paper Fig. 2): a layer whose feature maps and packed
// weights do not fit the on-chip banks is split into stripes of OFM tile
// rows, each with the halo of extra IFM tile rows a convolution needs.  A
// stripe's filter groups are further split into weight chunks that fit the
// bank space left after the feature-map regions.
//
// Bank layout per stripe batch (identical base addresses in every bank):
//   [0, ifm_words)                       input stripe
//   [ifm_words, +ofm_words)              output stripe
//   [weight_base, +chunk words)          packed weight streams, one group
//                                        after another at lane-aligned bases
#pragma once

#include <vector>

#include "core/config.hpp"
#include "core/fastpath.hpp"
#include "nn/layers.hpp"
#include "core/isa.hpp"
#include "nn/tensor.hpp"
#include "pack/lane_stream.hpp"
#include "pack/weight_pack.hpp"

namespace tsca::driver {

// Pre-serialized per-(group, lane) weight streams of one conv layer.
class WeightImage {
 public:
  // Empty image (no groups); placeholder until a real one is assigned
  // (ConvProgram default-constructs one before compilation fills it in).
  WeightImage() = default;

  // Automatically serializes in the dense 1-byte ternary format when every
  // weight is ±1 (pack::is_ternary).
  WeightImage(const pack::PackedFilters& packed, int lanes, int group);

  bool ternary() const { return ternary_; }

  int groups() const { return groups_; }
  int lanes() const { return lanes_; }
  int group_size() const { return group_size_; }
  int active_filters(int g) const;

  const std::vector<std::uint8_t>& bytes(int g, int lane) const {
    return bytes_[index(g, lane)];
  }
  int words(int g, int lane) const { return words_[index(g, lane)]; }
  // All banks hold group streams at the same base: each group occupies the
  // maximum of its lanes' stream words.
  int aligned_words(int g) const;

 private:
  friend class CompileCache;  // rebuilds images from the on-disk artifact

  std::size_t index(int g, int lane) const {
    TSCA_CHECK(g >= 0 && g < groups_ && lane >= 0 && lane < lanes_);
    return static_cast<std::size_t>(g) * lanes_ + lane;
  }

  int oc_ = 0;
  bool ternary_ = false;
  int groups_ = 0;
  int lanes_ = 0;
  int group_size_ = 0;
  std::vector<std::vector<std::uint8_t>> bytes_;
  std::vector<int> words_;
};

// One stripe of a convolution layer.
struct ConvStripe {
  int otile_row0 = 0;  // first OFM tile row
  int otile_rows = 0;
  int in_tile_row0 = 0;  // first (padded-)IFM tile row DMA'd on chip
  int in_tile_rows = 0;

  // Filter-group chunks executed as separate batches (weights re-DMA'd).
  struct Chunk {
    int g0 = 0;
    int count = 0;
  };
  std::vector<Chunk> chunks;
};

struct ConvPlan {
  nn::FmShape in_shape;   // padded input
  nn::FmShape out_shape;
  int kernel = 3;
  int in_tiles_x = 0;
  int out_tiles_x = 0;
  int ifm_base = 0;
  int ofm_base = 0;
  int weight_base = 0;
  int weight_budget_words = 0;
  std::vector<ConvStripe> stripes;
};

// Plans striping and weight chunking.  Throws ConfigError when even a single
// OFM tile row with one filter group cannot fit on chip.
ConvPlan plan_conv(const core::ArchConfig& cfg, const nn::FmShape& in_shape,
                   int out_channels, int kernel, const WeightImage& weights);

// Builds the CONV instruction for one (stripe, group); `local` geometry is
// stripe-relative.
core::ConvInstr make_conv_instr(const ConvPlan& plan, const ConvStripe& stripe,
                                int g, int weight_base_for_group,
                                const WeightImage& weights,
                                const std::vector<std::int32_t>& bias,
                                const nn::Requant& rq, int group_size);

// One stripe of a PAD or POOL layer.
struct PoolStripe {
  int otile_row0 = 0;
  int otile_rows = 0;
  int in_tile_row0 = 0;
  int in_tile_rows = 0;
  int local_offset_y = 0;  // window offset rewritten into stripe coordinates
};

struct PoolPlan {
  nn::FmShape in_shape;
  nn::FmShape out_shape;
  core::Opcode op = core::Opcode::kPad;
  int win = 1;
  int stride = 1;
  int offset_y = 0;
  int offset_x = 0;
  int in_tiles_x = 0;
  int out_tiles_x = 0;
  int ifm_base = 0;
  int ofm_base = 0;
  std::vector<PoolStripe> stripes;

  // Filled by compile_pool (driver/program.hpp; plan_pool leaves them
  // empty): one decoded fast-path plan per stripe, plus the PerfModel
  // prediction for the whole layer.  ExecMode::kFast requires both.
  std::vector<core::FastPoolPlan> fastp;
  std::uint64_t predicted_cycles = 0;
  std::int64_t predicted_ops = 0;
};

// Stripe geometry only (PerfModel plans with it); executors take
// compile_pool's finalized plan.
PoolPlan plan_pool(const core::ArchConfig& cfg, const nn::FmShape& in_shape,
                   const nn::FmShape& out_shape, core::Opcode op, int win,
                   int stride, int offset_y, int offset_x);

core::PadPoolInstr make_pool_instr(const PoolPlan& plan,
                                   const PoolStripe& stripe);

// Dense multiply-accumulate count of a convolution (GOPS accounting).
std::int64_t conv_macs(const nn::FmShape& in_shape, int out_channels,
                       int kernel);

}  // namespace tsca::driver
