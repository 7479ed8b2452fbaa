// End-to-end accelerator correctness: the streaming-kernel pipeline (both
// execution modes) must produce bit-exactly the int8 reference layers.
#include <gtest/gtest.h>

#include "core/accelerator.hpp"
#include "driver/runtime.hpp"
#include "nn/layers.hpp"
#include "pack/weight_pack.hpp"
#include "util/rng.hpp"
#include "image_run.hpp"

namespace tsca {
namespace {

nn::FeatureMapI8 random_fm(nn::FmShape shape, Rng& rng) {
  nn::FeatureMapI8 fm(shape);
  for (std::size_t i = 0; i < fm.size(); ++i)
    fm.data()[i] = static_cast<std::int8_t>(rng.next_int(-25, 25));
  return fm;
}

nn::FilterBankI8 random_filters(nn::FilterShape shape, double density,
                                Rng& rng) {
  nn::FilterBankI8 bank(shape);
  for (std::size_t i = 0; i < bank.size(); ++i) {
    if (rng.next_double() < density) {
      int w = 0;
      while (w == 0) w = rng.next_int(-12, 12);
      bank.data()[i] = static_cast<std::int8_t>(w);
    }
  }
  return bank;
}

core::ArchConfig small_config(int lanes) {
  core::ArchConfig cfg = lanes == 1 ? core::ArchConfig::k16_unopt()
                                    : core::ArchConfig::k256_opt();
  cfg.bank_words = 4096;
  cfg.weight_scratch_words = 32;  // force some spill traffic
  return cfg;
}

struct ConvCase {
  nn::FmShape in;
  int oc;
  int kernel;
  double density;
};

class ConvMatrix
    : public ::testing::TestWithParam<std::tuple<ConvCase, int, driver::ExecMode>> {};

TEST_P(ConvMatrix, MatchesInt8Reference) {
  const auto& [case_, lanes, mode] = GetParam();
  Rng rng(0xC0FFEEu ^ static_cast<std::uint64_t>(case_.in.c * 1315423911) ^
          static_cast<std::uint64_t>(case_.oc * 2654435761u) ^
          static_cast<std::uint64_t>(case_.kernel));
  const nn::FeatureMapI8 input = random_fm(case_.in, rng);
  const nn::FilterBankI8 filters = random_filters(
      {case_.oc, case_.in.c, case_.kernel, case_.kernel}, case_.density, rng);
  std::vector<std::int32_t> bias(static_cast<std::size_t>(case_.oc));
  for (auto& b : bias) b = rng.next_int(-300, 300);
  const nn::Requant rq{.shift = 6, .relu = true};

  const nn::FeatureMapI8 expected = nn::conv2d_i8(input, filters, bias, 1, rq);

  core::Accelerator acc(small_config(lanes));
  sim::Dram dram(8u << 20);
  sim::DmaEngine dma(dram);
  driver::Runtime runtime(acc, dram, dma, {.mode = mode});
  driver::LayerRun run;
  const pack::TiledFm out = conv_image(
      runtime, pack::to_tiled(input),
      driver::compile_conv(acc.config(), input.shape(),
                           pack::pack_filters(filters), bias, rq),
      run);
  const nn::FeatureMapI8 actual = pack::from_tiled(out);

  ASSERT_EQ(actual.shape(), expected.shape());
  EXPECT_EQ(actual, expected) << "conv mismatch (lanes=" << lanes << ")";
  if (mode == driver::ExecMode::kCycle) {
    EXPECT_GT(run.cycles, 0u);
  }
  if (case_.density > 0.0) {
    EXPECT_GT(run.counters.macs_performed, 0);
  } else {
    EXPECT_EQ(run.counters.macs_performed, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvMatrix,
    ::testing::Combine(
        ::testing::Values(
            ConvCase{{3, 10, 10}, 4, 3, 1.0},    // dense, ic < lanes
            ConvCase{{4, 8, 8}, 8, 3, 0.5},      // pruned
            ConvCase{{8, 12, 12}, 6, 3, 0.3},    // partial last group
            ConvCase{{5, 9, 9}, 4, 1, 1.0},      // 1x1 kernel, odd extent
            ConvCase{{4, 11, 11}, 4, 5, 0.4},    // 5x5: multiple weight tiles
            ConvCase{{2, 6, 6}, 3, 3, 0.0}),     // all-zero weights
        ::testing::Values(1, 4),
        ::testing::Values(driver::ExecMode::kThread, driver::ExecMode::kCycle,
                          driver::ExecMode::kFast)),
    [](const auto& info) {
      const ConvCase& c = std::get<0>(info.param);
      const int lanes = std::get<1>(info.param);
      const driver::ExecMode mode = std::get<2>(info.param);
      return "c" + std::to_string(c.in.c) + "x" + std::to_string(c.in.h) +
             "_oc" + std::to_string(c.oc) + "_k" + std::to_string(c.kernel) +
             "_d" + std::to_string(static_cast<int>(c.density * 100)) +
             "_l" + std::to_string(lanes) +
             "_" + driver::exec_mode_name(mode);
    });

struct PoolCase {
  nn::FmShape in;
  int win;
  int stride;
};

class PoolMatrix
    : public ::testing::TestWithParam<std::tuple<PoolCase, int, driver::ExecMode>> {};

TEST_P(PoolMatrix, MatchesInt8Reference) {
  const auto& [case_, lanes, mode] = GetParam();
  Rng rng(0xBEEF ^ static_cast<std::uint64_t>(case_.in.h * 31 + case_.win * 7 +
                                              case_.stride));
  const nn::FeatureMapI8 input = random_fm(case_.in, rng);
  const nn::FeatureMapI8 expected =
      nn::maxpool_i8(input, {case_.win, case_.stride});

  core::Accelerator acc(small_config(lanes));
  sim::Dram dram(8u << 20);
  sim::DmaEngine dma(dram);
  driver::Runtime runtime(acc, dram, dma, {.mode = mode});
  driver::LayerRun run;
  const pack::TiledFm out = runtime.run_pad_pool(
      pack::to_tiled(input),
      driver::compile_pool(acc.config(), input.shape(), expected.shape(),
                           core::Opcode::kPool, case_.win, case_.stride, 0, 0),
      run);
  const nn::FeatureMapI8 actual = pack::from_tiled(out);

  ASSERT_EQ(actual.shape(), expected.shape());
  EXPECT_EQ(actual, expected) << "pool mismatch";
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PoolMatrix,
    ::testing::Combine(
        ::testing::Values(PoolCase{{4, 8, 8}, 2, 2},    // the VGG pool
                          PoolCase{{3, 12, 12}, 3, 3},  // 3x3/3
                          PoolCase{{2, 10, 10}, 3, 2},  // overlapping windows
                          PoolCase{{5, 9, 9}, 5, 2},    // window > tile
                          PoolCase{{1, 7, 7}, 2, 1}),   // stride 1
        ::testing::Values(1, 4),
        ::testing::Values(driver::ExecMode::kThread, driver::ExecMode::kCycle,
                          driver::ExecMode::kFast)),
    [](const auto& info) {
      const PoolCase& c = std::get<0>(info.param);
      const int lanes = std::get<1>(info.param);
      const driver::ExecMode mode = std::get<2>(info.param);
      return "h" + std::to_string(c.in.h) + "_w" + std::to_string(c.win) +
             "_s" + std::to_string(c.stride) + "_l" + std::to_string(lanes) +
             "_" + driver::exec_mode_name(mode);
    });

class PadMatrix
    : public ::testing::TestWithParam<std::tuple<nn::Padding, int, driver::ExecMode>> {
};

TEST_P(PadMatrix, MatchesInt8Reference) {
  const auto& [pad, lanes, mode] = GetParam();
  Rng rng(0x9A7 + static_cast<std::uint64_t>(pad.top * 37 + pad.left));
  const nn::FeatureMapI8 input = random_fm({5, 9, 10}, rng);
  const nn::FeatureMapI8 expected = nn::pad_i8(input, pad);

  core::Accelerator acc(small_config(lanes));
  sim::Dram dram(8u << 20);
  sim::DmaEngine dma(dram);
  driver::Runtime runtime(acc, dram, dma, {.mode = mode});
  driver::LayerRun run;
  const pack::TiledFm out = runtime.run_pad_pool(
      pack::to_tiled(input),
      driver::compile_pool(acc.config(), input.shape(), expected.shape(),
                           core::Opcode::kPad, 1, 1, -pad.top, -pad.left),
      run);
  const nn::FeatureMapI8 actual = pack::from_tiled(out);

  ASSERT_EQ(actual.shape(), expected.shape());
  EXPECT_EQ(actual, expected) << "pad mismatch";
}

INSTANTIATE_TEST_SUITE_P(
    Pads, PadMatrix,
    ::testing::Combine(::testing::Values(nn::Padding::uniform(1),
                                         nn::Padding::uniform(2),
                                         nn::Padding{2, 0, 1, 3}),
                       ::testing::Values(1, 4),
                       ::testing::Values(driver::ExecMode::kThread,
                                         driver::ExecMode::kCycle,
                                         driver::ExecMode::kFast)),
    [](const auto& info) {
      const nn::Padding& pad = std::get<0>(info.param);
      const int lanes = std::get<1>(info.param);
      const driver::ExecMode mode = std::get<2>(info.param);
      return "t" + std::to_string(pad.top) + "l" + std::to_string(pad.left) +
             "b" + std::to_string(pad.bottom) + "r" +
             std::to_string(pad.right) + "_l" + std::to_string(lanes) +
             "_" + driver::exec_mode_name(mode);
    });

// Striping: a config with tiny banks forces multi-stripe, multi-chunk
// execution; the result must still be exact.
TEST(ConvStriping, TinyBanksForceStripesAndChunksExactResult) {
  Rng rng(77);
  const nn::FeatureMapI8 input = random_fm({8, 18, 18}, rng);
  const nn::FilterBankI8 filters = random_filters({8, 8, 3, 3}, 0.6, rng);
  const std::vector<std::int32_t> bias(8, 10);
  const nn::Requant rq{.shift = 5, .relu = false};
  const nn::FeatureMapI8 expected = nn::conv2d_i8(input, filters, bias, 1, rq);

  core::ArchConfig cfg = core::ArchConfig::k256_opt();
  cfg.bank_words = 80;  // small enough to force several stripes
  cfg.weight_scratch_words = 16;
  core::Accelerator acc(cfg);
  sim::Dram dram(8u << 20);
  sim::DmaEngine dma(dram);
  driver::Runtime runtime(acc, dram, dma, {.mode = driver::ExecMode::kCycle});
  driver::LayerRun run;
  const pack::TiledFm out = conv_image(
      runtime, pack::to_tiled(input),
      driver::compile_conv(cfg, input.shape(), pack::pack_filters(filters),
                           bias, rq),
      run);
  EXPECT_GT(run.stripes, 1);
  EXPECT_EQ(pack::from_tiled(out), expected);
}

// Zero-skipping must never change results, only cycles: a sparse layer runs
// in fewer cycles than its dense twin.
TEST(ZeroSkip, SparseLayerRunsFasterThanDense) {
  Rng rng(123);
  const nn::FeatureMapI8 input = random_fm({8, 16, 16}, rng);
  const nn::FilterBankI8 dense = random_filters({8, 8, 3, 3}, 1.0, rng);
  nn::FilterBankI8 sparse = dense;
  // Zero 80 % of weights deterministically.
  for (std::size_t i = 0; i < sparse.size(); ++i)
    if (i % 5 != 0) sparse.data()[i] = 0;
  const std::vector<std::int32_t> bias(8, 0);
  const nn::Requant rq{.shift = 6, .relu = true};

  auto run_cycles = [&](const nn::FilterBankI8& filters) {
    core::Accelerator acc(small_config(4));
    sim::Dram dram(8u << 20);
    sim::DmaEngine dma(dram);
    driver::Runtime runtime(acc, dram, dma, {.mode = driver::ExecMode::kCycle});
    driver::LayerRun run;
    const pack::TiledFm out = conv_image(
        runtime, pack::to_tiled(input),
        driver::compile_conv(acc.config(), input.shape(),
                             pack::pack_filters(filters), bias, rq),
        run);
    EXPECT_EQ(pack::from_tiled(out), nn::conv2d_i8(input, filters, bias, 1, rq));
    return run.cycles;
  };

  const std::uint64_t dense_cycles = run_cycles(dense);
  const std::uint64_t sparse_cycles = run_cycles(sparse);
  EXPECT_LT(sparse_cycles, dense_cycles);
  // The 4-cycle IFM floor bounds the possible gain at 75 % (paper §III-B.1).
  EXPECT_GT(sparse_cycles * 4, dense_cycles);
}

}  // namespace
}  // namespace tsca
