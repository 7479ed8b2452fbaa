// Messages flowing between the accelerator kernels.
//
// Every edge in the block diagram (Fig. 3) is a FIFO of one of these types:
//
//   controller ─FetchCmd→ data-staging (fetch)  ─WindowBundle→ inject
//   inject ─ConvCmd→ convolution ─ProductMsg→ accumulator ─AccTileMsg→ write
//   controller ─AccCtrl→ accumulator,  controller ─WriteCtrl→ write
//   fetch ─PoolCmd→ pool/pad ─PoolOutMsg→ write
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/config.hpp"
#include "core/datapath.hpp"
#include "core/isa.hpp"
#include "nn/layers.hpp"
#include "pack/lane_stream.hpp"

namespace tsca::core {

// Controller → data-staging: one instruction to execute (or halt).
struct FetchCmd {
  bool halt = false;
  Instruction instr;
};

// Data-staging fetch half → inject half: one (channel, weight-tile) step —
// the four preloaded IFM tiles plus a reference to the packed weight lists
// of the group (shared_ptr keeps the parsed stream alive while bundles are
// in flight across an instruction boundary; the last one to go returns its
// storage to the accelerator's pack::LaneStreamPool).
struct WindowBundle {
  Window window{};
  std::shared_ptr<const pack::LaneStream> stream;
  int group_index = 0;  // index into stream->groups
  int active = 0;
  bool empty_marker = false;  // lane owns no channels: end-of-position only
  bool end_tile = false;      // last bundle of this OFM tile position
  bool halt = false;

  const pack::LaneTileGroup& group() const {
    TSCA_CHECK(stream != nullptr && group_index >= 0 &&
               group_index < static_cast<int>(stream->groups.size()));
    return stream->groups[static_cast<std::size_t>(group_index)];
  }
};

// Inject half → convolution unit: one cycle of work — one weight (or bubble)
// per concurrent filter, plus the window on the first command of a step.
struct ConvCmd {
  std::array<std::int8_t, kMaxGroup> w{};
  std::array<std::uint8_t, kMaxGroup> offset{};
  bool load_window = false;
  Window window{};
  bool end_tile = false;
  bool halt = false;
};

// Convolution unit → accumulator g: 16 products for that filter's OFM tile.
struct ProductMsg {
  Products p{};
  bool end_tile = false;
};

// Controller → accumulator: one convolution instruction's worth of work.
struct AccCtrl {
  bool halt = false;
  std::int32_t positions = 0;
  std::int32_t bias = 0;
};

// Accumulator → write unit: a finished OFM tile (full precision).
struct AccTileMsg {
  pack::TileAcc acc{};
};

// Controller → write unit.
struct WriteCtrl {
  bool halt = false;
  bool is_conv = false;
  // Conv: positions tiles arrive from the accumulator; pool/pad: `count`
  // tiles arrive from the pool/pad unit carrying their own addresses.
  std::int32_t positions = 0;
  std::int32_t count = 0;
  bool active = true;  // inactive group slots discard their tiles
  nn::Requant requant;
  std::int32_t ofm_base = 0;
  std::int32_t ofm_tiles_x = 0;
  std::int32_t ofm_tiles_y = 0;
  std::int32_t channel_slot = 0;  // (oc0 + g) / lanes
};

// Data-staging → pool/pad unit: one injected IFM tile and its micro-op.
struct PoolCmd {
  bool halt = false;
  pack::Tile in_tile{};
  PoolPadOp op{};
  bool first = false;      // reset the output-tile register
  bool last = false;       // emit the output tile afterwards
  std::int32_t out_addr = 0;
};

// Pool/pad unit → write unit: a finished (already int8) output tile.
struct PoolOutMsg {
  pack::Tile tile{};
  std::int32_t out_addr = 0;
};

}  // namespace tsca::core
