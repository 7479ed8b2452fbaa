// Datapath arithmetic: the pure functions both engines share.
#include <gtest/gtest.h>

#include "core/datapath.hpp"
#include "util/rng.hpp"

namespace tsca::core {
namespace {

Window random_window(Rng& rng) {
  Window w;
  for (auto& v : w.v) v = static_cast<std::int8_t>(rng.next_int(-90, 90));
  return w;
}

TEST(WindowTest, AtIndexesQuadrantsRowMajor) {
  Window w;
  // Tag each quadrant with a distinct base so misrouting is obvious.
  for (int q = 0; q < 4; ++q) {
    pack::Tile tile;
    for (int i = 0; i < pack::kTileSize; ++i)
      tile.v[static_cast<std::size_t>(i)] = static_cast<std::int8_t>(q * 20 + i);
    w.set_tile(q, tile);
  }
  EXPECT_EQ(w.at(0, 0), 0);
  EXPECT_EQ(w.at(0, 4), 20);   // top-right quadrant, value 0
  EXPECT_EQ(w.at(4, 0), 40);   // bottom-left
  EXPECT_EQ(w.at(4, 4), 60);   // bottom-right
  EXPECT_EQ(w.at(3, 3), 15);   // last value of top-left
  EXPECT_EQ(w.at(7, 7), 75);   // last value of bottom-right
  EXPECT_EQ(w.at(2, 5), 20 + 2 * 4 + 1);
}

class SteerMultiplyAllOffsets : public ::testing::TestWithParam<int> {};

TEST_P(SteerMultiplyAllOffsets, MatchesNaiveRegionProduct) {
  const int offset = GetParam();
  Rng rng(100 + static_cast<std::uint64_t>(offset));
  const Window w = random_window(rng);
  const std::int8_t weight = static_cast<std::int8_t>(rng.next_int(-50, 50));
  const auto products = steer_multiply(w, weight, offset);
  const int oy = offset / 4;
  const int ox = offset % 4;
  for (int i = 0; i < pack::kTileSize; ++i) {
    const int expected =
        static_cast<int>(w.at(oy + i / 4, ox + i % 4)) * weight;
    EXPECT_EQ(products[static_cast<std::size_t>(i)], expected)
        << "offset " << offset << " value " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Offsets, SteerMultiplyAllOffsets,
                         ::testing::Range(0, 16));

TEST(SteerMultiply, ZeroWeightGatesToZero) {
  Rng rng(3);
  const Window w = random_window(rng);
  const auto products = steer_multiply(w, 0, 5);
  for (const std::int32_t p : products) EXPECT_EQ(p, 0);
}

TEST(SteerMultiply, RejectsOutOfRangeOffset) {
  Window w;
  EXPECT_THROW(steer_multiply(w, 1, 16), Error);
  EXPECT_THROW(steer_multiply(w, 1, -1), Error);
}

TEST(Accumulate, AddsElementwise) {
  pack::TileAcc acc;
  acc.v.fill(100);
  Products products{};
  for (int i = 0; i < pack::kTileSize; ++i)
    products[static_cast<std::size_t>(i)] = static_cast<std::int16_t>(i - 8);
  accumulate(acc, products);
  for (int i = 0; i < pack::kTileSize; ++i)
    EXPECT_EQ(acc.v[static_cast<std::size_t>(i)], 100 + i - 8);
}

TEST(RequantizeTile, ShiftReluSaturate) {
  pack::TileAcc acc;
  acc.v = {0,    63,   64,   -63,  -64,  8191,  -8191, 100000,
           -100000, 1,    -1,   127,  -127, 12800, -12800, 32};
  const pack::Tile out = requantize_tile(acc, {.shift = 6, .relu = false});
  EXPECT_EQ(out.v[0], 0);
  EXPECT_EQ(out.v[1], 1);    // 63 rounds up at half
  EXPECT_EQ(out.v[2], 1);
  EXPECT_EQ(out.v[3], -1);   // symmetric rounding
  EXPECT_EQ(out.v[4], -1);
  EXPECT_EQ(out.v[5], 127);  // 8191>>6 = 127.98 -> sat
  EXPECT_EQ(out.v[6], -127);
  EXPECT_EQ(out.v[7], 127);  // saturate high
  EXPECT_EQ(out.v[8], -127);
  EXPECT_EQ(out.v[13], 127);  // 12800>>6 = 200 -> sat
  const pack::Tile relu = requantize_tile(acc, {.shift = 6, .relu = true});
  EXPECT_EQ(relu.v[3], 0);
  EXPECT_EQ(relu.v[6], 0);
  EXPECT_EQ(relu.v[8], 0);
  EXPECT_EQ(relu.v[1], 1);
}

TEST(PoolPadOp, TakeRoutesMaxOfMask) {
  pack::Tile in;
  for (int i = 0; i < 16; ++i)
    in.v[static_cast<std::size_t>(i)] = static_cast<std::int8_t>(i * 3 - 20);
  PoolPadOp op;
  op.max_mask[0] = 0b0000000000110011;  // values 0,1,4,5 -> max = in[5]
  op.max_mask[1] = 0b1000000000000000;  // value 15 only
  op.out_sel[2] = kSelTake0;
  op.out_sel[7] = kSelTake0 + 1;
  pack::Tile out;
  out.v.fill(99);
  apply_pool_pad(op, in, out);
  EXPECT_EQ(out.v[2], in.v[5]);
  EXPECT_EQ(out.v[7], in.v[15]);
  EXPECT_EQ(out.v[0], 99);  // keep
}

TEST(PoolPadOp, CombineTakesRunningMax) {
  pack::Tile in;
  in.v.fill(10);
  PoolPadOp op;
  op.max_mask[2] = 1;  // value 0 = 10
  op.out_sel[4] = kSelCombine0 + 2;
  pack::Tile out;
  out.v.fill(0);
  out.v[4] = 50;
  apply_pool_pad(op, in, out);
  EXPECT_EQ(out.v[4], 50);  // old larger, kept
  out.v[4] = -5;
  apply_pool_pad(op, in, out);
  EXPECT_EQ(out.v[4], 10);  // new larger
}

TEST(PoolPadOp, DefaultOpKeepsEverything) {
  pack::Tile in;
  in.v.fill(77);
  pack::Tile out;
  for (int i = 0; i < 16; ++i)
    out.v[static_cast<std::size_t>(i)] = static_cast<std::int8_t>(i);
  const pack::Tile before = out;
  apply_pool_pad(PoolPadOp{}, in, out);
  EXPECT_EQ(out, before);
}

}  // namespace
}  // namespace tsca::core
