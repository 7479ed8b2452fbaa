// Ternary-network extension (paper §VII future work): quantization, the
// dense 1-byte packed stream, and end-to-end accelerator execution.
#include <gtest/gtest.h>

#include "core/accelerator.hpp"
#include "driver/perf_model.hpp"
#include "driver/runtime.hpp"
#include "nn/vgg16.hpp"
#include "pack/lane_stream.hpp"
#include "quant/ternary.hpp"
#include "util/rng.hpp"
#include "image_run.hpp"

namespace tsca {
namespace {

nn::FilterBankF random_bank_f(nn::FilterShape shape, Rng& rng) {
  nn::FilterBankF bank(shape);
  for (std::size_t i = 0; i < bank.size(); ++i)
    bank.data()[i] = static_cast<float>(rng.next_gaussian() * 0.1);
  return bank;
}

TEST(Ternarize, ProducesSignsAboveThresholdOnly) {
  Rng rng(1);
  const nn::FilterBankF bank = random_bank_f({4, 4, 3, 3}, rng);
  const quant::TernaryLayer layer = quant::ternarize_filters(bank);
  double mean_abs = 0.0;
  for (std::size_t i = 0; i < bank.size(); ++i)
    mean_abs += std::abs(bank.data()[i]);
  mean_abs /= static_cast<double>(bank.size());
  const double delta = 0.7 * mean_abs;
  for (std::size_t i = 0; i < bank.size(); ++i) {
    const std::int8_t t = layer.weights.data()[i];
    EXPECT_TRUE(t == -1 || t == 0 || t == 1);
    if (std::abs(bank.data()[i]) > delta)
      EXPECT_EQ(t, bank.data()[i] > 0 ? 1 : -1);
    else
      EXPECT_EQ(t, 0);
  }
  EXPECT_GT(layer.density, 0.1);
  EXPECT_LT(layer.density, 0.9);
  // Gaussian(0, 0.1): alpha ≈ 0.13 ⇒ weight_exp ≈ 3.
  EXPECT_GE(layer.weight_exp, 2);
  EXPECT_LE(layer.weight_exp, 4);
}

TEST(TernaryStream, OneByteFormatRoundTripsAndHalvesTraffic) {
  Rng rng(2);
  const nn::FilterBankF bank_f = random_bank_f({8, 8, 3, 3}, rng);
  const pack::PackedFilters packed =
      pack::pack_filters(quant::ternarize_filters(bank_f).weights);
  ASSERT_TRUE(pack::is_ternary(packed));

  const pack::LaneStream dense =
      pack::build_lane_stream(packed, 0, 4, 1, 4, /*ternary=*/false);
  const pack::LaneStream ternary =
      pack::build_lane_stream(packed, 0, 4, 1, 4, /*ternary=*/true);
  // Same lists, half the entry bytes.
  const std::int64_t nnz = dense.total_bytes - ternary.total_bytes;
  EXPECT_GT(nnz, 0);
  EXPECT_EQ(ternary.total_bytes + nnz, dense.total_bytes);

  const std::vector<std::uint8_t> bytes = serialize_lane_stream(ternary);
  EXPECT_EQ(static_cast<std::int64_t>(bytes.size()), ternary.total_bytes);
  const pack::LaneStream parsed = pack::parse_lane_stream(
      bytes, ternary.channels, ternary.wtiles, ternary.active, true);
  for (std::size_t i = 0; i < ternary.groups.size(); ++i)
    EXPECT_EQ(parsed.groups[i].lists, ternary.groups[i].lists);
}

TEST(TernaryStream, RejectsNonTernaryWeights) {
  Rng rng(3);
  nn::FilterBankI8 bank({4, 4, 3, 3});
  bank.at(0, 0, 0, 0) = 5;  // not ±1
  const pack::PackedFilters packed = pack::pack_filters(bank);
  EXPECT_FALSE(pack::is_ternary(packed));
  EXPECT_THROW(pack::build_lane_stream(packed, 0, 4, 0, 4, true), Error);
}

TEST(TernaryAccelerator, ConvMatchesReferenceBothEngines) {
  Rng rng(4);
  nn::FeatureMapI8 input({8, 12, 12});
  for (std::size_t i = 0; i < input.size(); ++i)
    input.data()[i] = static_cast<std::int8_t>(rng.next_int(-50, 50));
  const quant::TernaryLayer tl =
      quant::ternarize_filters(random_bank_f({8, 8, 3, 3}, rng));
  const std::vector<std::int32_t> bias(8, -7);
  const nn::Requant rq{.shift = 2, .relu = false};
  const nn::FeatureMapI8 expected =
      nn::conv2d_i8(input, tl.weights, bias, 1, rq);

  for (const driver::ExecMode mode :
       {driver::ExecMode::kCycle, driver::ExecMode::kThread,
        driver::ExecMode::kFast}) {
    core::ArchConfig cfg = core::ArchConfig::k256_opt();
    cfg.bank_words = 2048;
    core::Accelerator acc(cfg);
    sim::Dram dram(16u << 20);
    sim::DmaEngine dma(dram);
    driver::Runtime runtime(acc, dram, dma, {.mode = mode});
    driver::LayerRun run;
    const pack::TiledFm out = conv_image(
        runtime, pack::to_tiled(input),
        driver::compile_conv(cfg, input.shape(),
                             pack::pack_filters(tl.weights), bias, rq),
        run);
    EXPECT_EQ(pack::from_tiled(out), expected);
  }
}

TEST(TernaryNetwork, EndToEndThroughAcceleratorMatchesInt8Reference) {
  Rng rng(5);
  const nn::Network net = nn::build_vgg16(
      {.input_extent = 32, .channel_divisor = 32, .num_classes = 10});
  const nn::WeightsF weights = nn::init_random_weights(net, rng);
  nn::FeatureMapF image(net.input_shape());
  for (std::size_t i = 0; i < image.size(); ++i)
    image.data()[i] = static_cast<float>(rng.next_gaussian() * 0.4);
  const quant::QuantizedModel model =
      quant::ternarize_network(net, weights, {image});
  // Every conv layer is ternary and every shift non-negative.
  for (std::size_t i = 0; i < net.layers().size(); ++i) {
    if (net.layers()[i].kind != nn::LayerKind::kConv) continue;
    EXPECT_GE(model.weights.conv_requant[i].shift, 0);
    for (std::size_t k = 0; k < model.weights.conv[i].size(); ++k) {
      const std::int8_t w = model.weights.conv[i].data()[k];
      EXPECT_TRUE(w == -1 || w == 0 || w == 1);
    }
  }

  const nn::FeatureMapI8 input =
      quant::quantize_fm(image, model.input_exp);
  const std::vector<nn::ActivationI8> ref =
      nn::forward_i8_all(net, model.weights, input);

  core::ArchConfig cfg = core::ArchConfig::k256_opt();
  cfg.bank_words = 4096;
  core::Accelerator acc(cfg);
  sim::Dram dram(64u << 20);
  sim::DmaEngine dma(dram);
  driver::Runtime runtime(acc, dram, dma, {.mode = driver::ExecMode::kCycle});
  const ImageRun run = run_image(
      runtime, driver::NetworkProgram::compile(net, model, cfg), input);
  ASSERT_TRUE(run.flat_output);
  EXPECT_EQ(run.logits, ref.back().flat);
}

TEST(TernaryPerf, DenserStreamReducesSpillForDeepLayers) {
  Rng rng(6);
  // A deep-layer shape with a scratch too small for the int8 stream; high
  // sparsity makes the fetch path (IFM loads + weight spill) the bottleneck,
  // where the ternary format's density pays off.
  const nn::FilterBankF bank_f = random_bank_f({64, 64, 3, 3}, rng);
  const quant::TernaryLayer tl =
      quant::ternarize_filters(bank_f, {.delta_factor = 1.5});
  // An int8 twin with the same sparsity pattern but wide values.
  nn::FilterBankI8 int8_bank = tl.weights;
  for (std::size_t i = 0; i < int8_bank.size(); ++i)
    if (int8_bank.data()[i] != 0)
      int8_bank.data()[i] = static_cast<std::int8_t>(
          int8_bank.data()[i] * rng.next_int(2, 60));

  core::ArchConfig cfg = core::ArchConfig::k256_opt();
  cfg.weight_scratch_words = 16;
  const driver::PerfModel model(cfg);
  const driver::ConvPerf ternary_perf =
      model.conv_layer({64, 16, 16}, pack::pack_filters(tl.weights));
  const driver::ConvPerf int8_perf =
      model.conv_layer({64, 16, 16}, pack::pack_filters(int8_bank));
  // Same weight commands (same sparsity pattern), fewer cycles (less spill).
  EXPECT_EQ(ternary_perf.weight_cmds, int8_perf.weight_cmds);
  EXPECT_LT(ternary_perf.cycles, int8_perf.cycles);
}

}  // namespace
}  // namespace tsca
