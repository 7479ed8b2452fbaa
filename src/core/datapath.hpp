// Shared datapath arithmetic.
//
// Pure functions implementing the compute fabric of Fig. 4(b) and Fig. 5:
// the offset-steered multiply grid of the convolution unit, the accumulator
// adds, the requantizing write-back, and the MAX/mux network of the
// padding/pooling unit.  Both execution engines (threaded and cycle-accurate)
// call exactly these functions, which is what makes their outputs bit-exact
// by construction.
#pragma once

#include <array>
#include <cstdint>

#include "nn/layers.hpp"
#include "pack/tile.hpp"
#include "util/check.hpp"

namespace tsca::core {

// Four contiguous IFM tiles (Fig. 4(a)) held as one tile-aligned 8×8
// register, row-major, so the 4×4 region a weight with intra-tile offset
// (oy, ox) selects is 4 contiguous rows of 4 values starting at (oy, ox).
struct Window {
  static constexpr int kDim = 2 * pack::kTileDim;
  std::array<std::int8_t, kDim * kDim> v{};

  // Loads one of the four tiles: [0] top-left, [1] top-right,
  // [2] bottom-left, [3] bottom-right.
  void set_tile(int quadrant, const pack::Tile& tile) {
    TSCA_CHECK(quadrant >= 0 && quadrant < 4, "quadrant=" << quadrant);
    const int y0 = (quadrant / 2) * pack::kTileDim;
    const int x0 = (quadrant % 2) * pack::kTileDim;
    for (int y = 0; y < pack::kTileDim; ++y)
      for (int x = 0; x < pack::kTileDim; ++x)
        v[static_cast<std::size_t>((y0 + y) * kDim + x0 + x)] =
            tile.v[static_cast<std::size_t>(y * pack::kTileDim + x)];
  }

  std::int8_t at(int y, int x) const {
    TSCA_CHECK(y >= 0 && y < kDim && x >= 0 && x < kDim);
    return v[static_cast<std::size_t>(y * kDim + x)];
  }
  bool operator==(const Window&) const = default;
};

// The 16 products of one weight.  Any int8 × int8 product, even
// −128 × −128, fits int16 exactly, as it does out of an 8-bit multiplier.
using Products = std::array<std::int16_t, pack::kTileSize>;

// 16 products of one weight applied to the window region selected by its
// intra-tile offset (the multiplexer + multiplier array of Fig. 4(b)).
// Forced inline: the convolution unit calls it four times per simulated
// cycle, and the check's message code would otherwise keep it out of line.
[[gnu::always_inline]] inline Products steer_multiply(const Window& window,
                                                      std::int8_t weight,
                                                      int offset) {
  TSCA_CHECK(offset >= 0 && offset < pack::kTileSize, "offset=" << offset);
  Products products{};
  if (weight == 0) return products;  // bubble: gated multipliers
  const std::size_t origin = static_cast<std::size_t>(
      (offset / pack::kTileDim) * Window::kDim + offset % pack::kTileDim);
  for (int dy = 0; dy < pack::kTileDim; ++dy)
    for (int dx = 0; dx < pack::kTileDim; ++dx)
      products[static_cast<std::size_t>(dy * pack::kTileDim + dx)] =
          static_cast<std::int16_t>(
              window.v[origin + static_cast<std::size_t>(dy * Window::kDim +
                                                         dx)] *
              weight);
  return products;
}

// Adds 16 products into an accumulator tile.
inline void accumulate(pack::TileAcc& acc, const Products& products) {
  for (std::size_t i = 0; i < acc.v.size(); ++i) acc.v[i] += products[i];
}

// Requantizes an accumulator tile into an int8 output tile (rounded shift,
// optional ReLU, saturation to ±127) — the write-to-memory unit's datapath.
pack::Tile requantize_tile(const pack::TileAcc& acc, const nn::Requant& rq);

// ---- padding/pooling unit (Fig. 5) ----------------------------------------

inline constexpr int kNumMaxUnits = 4;

// Output-mux select encodings: take MAX k, running-max with the old value
// (library extension for windows that straddle tiles), or keep.
inline constexpr std::uint8_t kSelTake0 = 0;  // .. kSelTake0+3
inline constexpr std::uint8_t kSelCombine0 = 4;  // .. kSelCombine0+3
inline constexpr std::uint8_t kSelKeep = 8;

// One cycle of the pool/pad unit: masks select which of the 16 injected IFM
// values each MAX unit reduces; out_sel routes MAX outputs (or the old value)
// to each of the 16 OFM tile values.
struct PoolPadOp {
  std::array<std::uint16_t, kNumMaxUnits> max_mask{};  // bit i = value i
  std::array<std::uint8_t, pack::kTileSize> out_sel{};

  PoolPadOp() { out_sel.fill(kSelKeep); }
};

// Applies one op to the output-tile register.
void apply_pool_pad(const PoolPadOp& op, const pack::Tile& in_tile,
                    pack::Tile& out_reg);

}  // namespace tsca::core
