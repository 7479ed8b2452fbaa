// Batched convolution: weight-amortized multi-image execution.
#include <gtest/gtest.h>

#include "core/accelerator.hpp"
#include "driver/runtime.hpp"
#include "pack/weight_pack.hpp"
#include "util/rng.hpp"

namespace tsca {
namespace {

nn::FeatureMapI8 random_fm(nn::FmShape shape, Rng& rng) {
  nn::FeatureMapI8 fm(shape);
  for (std::size_t i = 0; i < fm.size(); ++i)
    fm.data()[i] = static_cast<std::int8_t>(rng.next_int(-40, 40));
  return fm;
}

nn::FilterBankI8 random_filters(nn::FilterShape shape, double density,
                                Rng& rng) {
  nn::FilterBankI8 bank(shape);
  for (std::size_t i = 0; i < bank.size(); ++i)
    if (rng.next_double() < density)
      bank.data()[i] = static_cast<std::int8_t>(rng.next_int(-15, 15));
  return bank;
}

class BatchedConv : public ::testing::TestWithParam<int> {};

TEST_P(BatchedConv, EveryImageMatchesReference) {
  const int bank_words = GetParam();  // small values force stripes + chunks
  Rng rng(71);
  constexpr int kBatch = 3;
  std::vector<nn::FeatureMapI8> images;
  std::vector<pack::TiledFm> tiled;
  for (int i = 0; i < kBatch; ++i) {
    images.push_back(random_fm({8, 14, 14}, rng));
    tiled.push_back(pack::to_tiled(images.back()));
  }
  const nn::FilterBankI8 filters = random_filters({16, 8, 3, 3}, 0.5, rng);
  const std::vector<std::int32_t> bias(16, -4);
  const nn::Requant rq{.shift = 6, .relu = true};

  core::ArchConfig cfg = core::ArchConfig::k256_opt();
  cfg.bank_words = bank_words;
  core::Accelerator acc(cfg);
  sim::Dram dram(32u << 20);
  sim::DmaEngine dma(dram);
  driver::Runtime runtime(acc, dram, dma, {.mode = driver::ExecMode::kCycle});
  driver::LayerRun run;
  const std::vector<pack::TiledFm> outputs = runtime.run_conv_batch(
      tiled,
      driver::compile_conv(cfg, tiled.front().shape(),
                           pack::pack_filters(filters), bias, rq),
      run);

  ASSERT_EQ(outputs.size(), images.size());
  for (int i = 0; i < kBatch; ++i)
    EXPECT_EQ(pack::from_tiled(outputs[static_cast<std::size_t>(i)]),
              nn::conv2d_i8(images[static_cast<std::size_t>(i)], filters,
                            bias, 1, rq))
        << "image " << i;
}

INSTANTIATE_TEST_SUITE_P(BankSizes, BatchedConv,
                         ::testing::Values(4096,  // one stripe, one chunk
                                           400,   // stripes + chunks
                                           240),  // heavier splitting
                         [](const auto& info) {
                           return "bank" + std::to_string(info.param);
                         });

TEST(BatchedConv, AmortizesWeightDmaAcrossImages) {
  Rng rng(72);
  constexpr int kBatch = 4;
  std::vector<pack::TiledFm> tiled;
  for (int i = 0; i < kBatch; ++i)
    tiled.push_back(pack::to_tiled(random_fm({8, 16, 16}, rng)));
  const nn::FilterBankI8 filters = random_filters({16, 8, 3, 3}, 0.8, rng);
  const pack::PackedFilters packed = pack::pack_filters(filters);
  const std::vector<std::int32_t> bias(16, 0);
  const nn::Requant rq{.shift = 6, .relu = true};

  auto dma_in_bytes = [&](bool batched) {
    core::ArchConfig cfg = core::ArchConfig::k256_opt();
    cfg.bank_words = 4096;
    core::Accelerator acc(cfg);
    sim::Dram dram(64u << 20);
    sim::DmaEngine dma(dram);
    driver::Runtime runtime(acc, dram, dma, {.mode = driver::ExecMode::kCycle});
    const driver::ConvProgram conv =
        driver::compile_conv(cfg, tiled.front().shape(), packed, bias, rq);
    if (batched) {
      driver::LayerRun run;
      runtime.run_conv_batch(tiled, conv, run);
    } else {
      for (const pack::TiledFm& image : tiled) {
        driver::LayerRun run;
        runtime.run_conv(image, conv, run);
      }
    }
    return dma.stats().bytes_to_fpga;
  };
  const std::uint64_t batched = dma_in_bytes(true);
  const std::uint64_t separate = dma_in_bytes(false);
  // Weights moved once instead of kBatch times.
  const std::uint64_t weight_bytes = [&] {
    const driver::WeightImage wimg(packed, 4, 4);
    std::uint64_t total = 0;
    for (int g = 0; g < wimg.groups(); ++g)
      for (int lane = 0; lane < 4; ++lane)
        total += wimg.bytes(g, lane).size();
    return total;
  }();
  EXPECT_EQ(separate - batched, (kBatch - 1) * weight_bytes);
}

}  // namespace
}  // namespace tsca
