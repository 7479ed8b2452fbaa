#include "core/datapath.hpp"

#include <algorithm>

namespace tsca::core {

pack::Tile requantize_tile(const pack::TileAcc& acc, const nn::Requant& rq) {
  pack::Tile out;
  for (int i = 0; i < pack::kTileSize; ++i)
    out.v[static_cast<std::size_t>(i)] =
        nn::requantize(acc.v[static_cast<std::size_t>(i)], rq);
  return out;
}

void apply_pool_pad(const PoolPadOp& op, const pack::Tile& in_tile,
                    pack::Tile& out_reg) {
  // MAX units: reduce the masked subset of the 16 injected values.  An empty
  // mask yields the most negative representable value so that an (incorrect)
  // take from an unused unit is conspicuous rather than silently zero.
  std::array<std::int8_t, kNumMaxUnits> max_out{};
  for (int m = 0; m < kNumMaxUnits; ++m) {
    std::int32_t best = nn::kInt8Min;
    const std::uint16_t mask = op.max_mask[static_cast<std::size_t>(m)];
    for (int i = 0; i < pack::kTileSize; ++i)
      if (mask & (1u << i))
        best = std::max<std::int32_t>(best,
                                      in_tile.v[static_cast<std::size_t>(i)]);
    max_out[static_cast<std::size_t>(m)] = static_cast<std::int8_t>(best);
  }
  // Output muxes.
  for (int i = 0; i < pack::kTileSize; ++i) {
    const std::uint8_t sel = op.out_sel[static_cast<std::size_t>(i)];
    std::int8_t& out = out_reg.v[static_cast<std::size_t>(i)];
    if (sel < kSelCombine0) {
      out = max_out[sel];
    } else if (sel < kSelKeep) {
      out = std::max(out, max_out[static_cast<std::size_t>(sel - kSelCombine0)]);
    } else {
      TSCA_CHECK(sel == kSelKeep, "bad out_sel " << int{sel});
    }
  }
}

}  // namespace tsca::core
