// Fused PAD+CONV execution: the padded map stays on chip.
#include <gtest/gtest.h>

#include "core/accelerator.hpp"
#include "driver/program.hpp"
#include "driver/runtime.hpp"
#include "nn/vgg16.hpp"
#include "quant/quantize.hpp"
#include "util/rng.hpp"
#include "image_run.hpp"

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

TEST(FusedPadConv, MatchesUnfusedResultBitExactly) {
  Rng rng(21);
  const nn::FeatureMapI8 input = random_fm({8, 12, 12}, rng);
  const nn::FilterBankI8 filters = random_filters({8, 8, 3, 3}, 0.5, rng);
  const std::vector<std::int32_t> bias(8, 3);
  const nn::Requant rq{.shift = 6, .relu = true};
  const nn::Padding pad = nn::Padding::uniform(1);

  const nn::FeatureMapI8 expected =
      nn::conv2d_i8(nn::pad_i8(input, pad), filters, bias, 1, rq);

  core::ArchConfig cfg = core::ArchConfig::k256_opt();
  cfg.bank_words = 4096;
  core::Accelerator acc(cfg);
  sim::Dram dram(32u << 20);
  sim::DmaEngine dma(dram);
  driver::Runtime runtime(acc, dram, dma, {.mode = driver::ExecMode::kCycle});
  const std::optional<driver::FusedPadConv> fused =
      driver::compile_fused_pad_conv(cfg, input.shape(), pad,
                                     pack::pack_filters(filters), bias, rq);
  ASSERT_TRUE(fused.has_value());
  driver::LayerRun pad_run;
  driver::LayerRun conv_run;
  const pack::TiledFm out = fused_image(runtime, pack::to_tiled(input),
                                        fused->conv, fused->layout, pad_run,
                                        conv_run);
  EXPECT_EQ(pack::from_tiled(out), expected);
  EXPECT_GT(pad_run.cycles, 0u);
  EXPECT_GT(conv_run.cycles, 0u);
}

TEST(FusedPadConv, SavesDmaTrafficVersusSeparateExecution) {
  Rng rng(22);
  const nn::FeatureMapI8 input = random_fm({8, 16, 16}, rng);
  const nn::FilterBankI8 filters = random_filters({8, 8, 3, 3}, 0.6, rng);
  const std::vector<std::int32_t> bias(8, 0);
  const nn::Requant rq{.shift = 6, .relu = true};
  const nn::Padding pad = nn::Padding::uniform(1);

  auto dma_bytes = [&](bool fused) {
    core::ArchConfig cfg = core::ArchConfig::k256_opt();
    cfg.bank_words = 4096;
    core::Accelerator acc(cfg);
    sim::Dram dram(32u << 20);
    sim::DmaEngine dma(dram);
    driver::Runtime runtime(acc, dram, dma, {.mode = driver::ExecMode::kCycle});
    const pack::PackedFilters packed = pack::pack_filters(filters);
    if (fused) {
      const std::optional<driver::FusedPadConv> f =
          driver::compile_fused_pad_conv(cfg, input.shape(), pad, packed,
                                         bias, rq);
      EXPECT_TRUE(f.has_value());
      driver::LayerRun pad_run;
      driver::LayerRun conv_run;
      fused_image(runtime, pack::to_tiled(input), f->conv, f->layout, pad_run,
                  conv_run);
    } else {
      driver::LayerRun r1;
      driver::LayerRun r2;
      const pack::TiledFm padded = runtime.run_pad_pool(
          pack::to_tiled(input),
          driver::compile_pool(cfg, input.shape(), {8, 18, 18},
                               core::Opcode::kPad, 1, 1, -1, -1),
          r1);
      conv_image(runtime, padded,
                 driver::compile_conv(cfg, padded.shape(), packed, bias, rq),
                 r2);
    }
    return dma.stats().bytes_to_fpga + dma.stats().bytes_to_dram;
  };
  const std::uint64_t fused = dma_bytes(true);
  const std::uint64_t separate = dma_bytes(false);
  EXPECT_LT(fused, separate);
  // The padded map (8*20*20-ish bytes in each direction) never moved.
  EXPECT_GT(separate - fused, 8u * 18 * 18);
}

TEST(FusedPadConv, RefusesWhenItDoesNotFitOnChip) {
  Rng rng(23);
  const nn::FeatureMapI8 input = random_fm({8, 32, 32}, rng);
  const nn::FilterBankI8 filters = random_filters({8, 8, 3, 3}, 0.5, rng);
  core::ArchConfig cfg = core::ArchConfig::k256_opt();
  cfg.bank_words = 256;  // too small for raw + padded + ofm + weights
  EXPECT_FALSE(driver::compile_fused_pad_conv(cfg, input.shape(),
                                              nn::Padding::uniform(1),
                                              pack::pack_filters(filters), {},
                                              nn::Requant{})
                   .has_value());
}

TEST(FusedPadConv, NetworkRunFusionMatchesUnfusedNetworkRun) {
  Rng rng(24);
  const nn::Network net = nn::build_vgg16(
      {.input_extent = 32, .channel_divisor = 32, .num_classes = 10});
  const nn::WeightsF weights = nn::init_random_weights(net, rng);
  nn::FeatureMapF image(net.input_shape());
  for (std::size_t i = 0; i < image.size(); ++i)
    image.data()[i] = static_cast<float>(rng.next_gaussian() * 0.3);
  const quant::QuantizedModel model =
      quant::quantize_network(net, weights, {image});
  const nn::FeatureMapI8 input = quant::quantize_fm(image, model.input_exp);

  auto run_with = [&](bool fuse) {
    core::ArchConfig cfg = core::ArchConfig::k256_opt();
    cfg.bank_words = 8192;
    core::Accelerator acc(cfg);
    sim::Dram dram(64u << 20);
    sim::DmaEngine dma(dram);
    driver::Runtime runtime(
        acc, dram, dma,
        {.mode = driver::ExecMode::kCycle, .keep_activations = true});
    return run_image(runtime,
                     driver::NetworkProgram::compile(net, model, cfg,
                                                     {.fuse_pad_conv = fuse}),
                     input);
  };
  const ImageRun fused = run_with(true);
  const ImageRun plain = run_with(false);
  EXPECT_EQ(fused.logits, plain.logits);
  ASSERT_EQ(fused.activations.size(), plain.activations.size());
  for (std::size_t i = 0; i < fused.activations.size(); ++i)
    EXPECT_EQ(fused.activations[i], plain.activations[i]) << "layer " << i;
  EXPECT_EQ(fused.layers.size(), plain.layers.size());

  std::uint64_t fused_dma = 0;
  std::uint64_t plain_dma = 0;
  for (std::size_t i = 0; i < fused.layers.size(); ++i) {
    fused_dma += fused.layers[i].dma.bytes_to_fpga +
                 fused.layers[i].dma.bytes_to_dram;
    plain_dma += plain.layers[i].dma.bytes_to_fpga +
                 plain.layers[i].dma.bytes_to_dram;
  }
  EXPECT_LT(fused_dma, plain_dma);
}

}  // namespace
}  // namespace tsca
