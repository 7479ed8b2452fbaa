// End-to-end network execution through the driver and accelerator.
//
// A channel-scaled VGG-16 (identical topology, fewer channels) runs through
// the full flow — quantization, pruning, packing, striping, DMA, both
// execution engines — and must match the int8 reference network bit-exactly
// and the float oracle within quantization error.
#include <gtest/gtest.h>

#include <cmath>

#include "core/accelerator.hpp"
#include "driver/runtime.hpp"
#include "nn/vgg16.hpp"
#include "quant/prune.hpp"
#include "quant/quantize.hpp"
#include "util/rng.hpp"
#include "image_run.hpp"

namespace tsca {
namespace {

nn::FeatureMapF random_image(nn::FmShape shape, Rng& rng) {
  nn::FeatureMapF fm(shape);
  for (std::size_t i = 0; i < fm.size(); ++i)
    fm.data()[i] = static_cast<float>(rng.next_gaussian() * 0.4);
  return fm;
}

struct Scenario {
  nn::Network net;
  nn::WeightsF weights;
  quant::QuantizedModel model;
  nn::FeatureMapF input_f;
};

Scenario make_scenario(bool pruned, std::uint64_t seed) {
  Rng rng(seed);
  nn::Network net = nn::build_vgg16(
      {.input_extent = 32, .channel_divisor = 16, .num_classes = 10});
  nn::WeightsF weights = nn::init_random_weights(net, rng);
  if (pruned)
    quant::prune_weights(net, weights, quant::vgg16_han_profile());
  const nn::FeatureMapF image = random_image(net.input_shape(), rng);
  quant::QuantizedModel model = quant::quantize_network(net, weights, {image});
  return Scenario{std::move(net), std::move(weights), std::move(model), image};
}

nn::FeatureMapI8 quantized_input(const Scenario& s) {
  return quant::quantize_fm(s.input_f, s.model.input_exp);
}

core::ArchConfig test_config() {
  core::ArchConfig cfg = core::ArchConfig::k256_opt();
  cfg.bank_words = 128;  // small banks force striping on most layers
  return cfg;
}

TEST(NetworkE2E, ScaledVgg16MatchesInt8ReferenceCycleMode) {
  const Scenario s = make_scenario(/*pruned=*/true, 42);
  const nn::FeatureMapI8 input = quantized_input(s);
  const std::vector<nn::ActivationI8> ref =
      nn::forward_i8_all(s.net, s.model.weights, input);

  core::Accelerator acc(test_config());
  sim::Dram dram(64u << 20);
  sim::DmaEngine dma(dram);
  driver::Runtime runtime(acc, dram, dma,
                          {.mode = driver::ExecMode::kCycle,
                           .keep_activations = true});
  const ImageRun run = run_image(
      runtime, driver::NetworkProgram::compile(s.net, s.model, test_config()),
      input);

  ASSERT_TRUE(run.flat_output);
  ASSERT_FALSE(ref.empty());
  EXPECT_EQ(run.logits, ref.back().flat) << "final logits differ";

  // Every on-accelerator feature map must match the reference layer by layer.
  std::size_t act = 0;
  for (std::size_t i = 0; i < s.net.layers().size(); ++i) {
    if (ref[i].is_flat) break;
    ASSERT_LT(act, run.activations.size());
    EXPECT_EQ(run.activations[act], ref[i].fm)
        << "layer " << s.net.layers()[i].name;
    ++act;
  }
  // Cycle counts and stripes were actually exercised.
  std::uint64_t total_cycles = 0;
  int striped_layers = 0;
  for (const driver::LayerRun& lr : run.layers) {
    total_cycles += lr.cycles;
    if (lr.stripes > 1) ++striped_layers;
  }
  EXPECT_GT(total_cycles, 6'000u);
  EXPECT_GT(striped_layers, 0);
}

TEST(NetworkE2E, ThreadAndCycleEnginesAgreeBitExactly) {
  const Scenario s = make_scenario(/*pruned=*/true, 7);
  const nn::FeatureMapI8 input = quantized_input(s);

  auto run_mode = [&](driver::ExecMode mode) {
    core::Accelerator acc(test_config());
    sim::Dram dram(64u << 20);
    sim::DmaEngine dma(dram);
    driver::Runtime runtime(acc, dram, dma, {.mode = mode});
    return run_image(
        runtime,
        driver::NetworkProgram::compile(s.net, s.model, test_config()),
        input);
  };
  const ImageRun cycle = run_mode(driver::ExecMode::kCycle);
  const ImageRun thread = run_mode(driver::ExecMode::kThread);
  const ImageRun fast = run_mode(driver::ExecMode::kFast);
  EXPECT_EQ(cycle.logits, thread.logits);
  EXPECT_EQ(cycle.logits, fast.logits);
}

TEST(NetworkE2E, QuantizedPipelineTracksFloatOracle) {
  const Scenario s = make_scenario(/*pruned=*/false, 11);
  const nn::FeatureMapI8 input = quantized_input(s);

  core::Accelerator acc(test_config());
  sim::Dram dram(64u << 20);
  sim::DmaEngine dma(dram);
  driver::Runtime runtime(acc, dram, dma, {.mode = driver::ExecMode::kCycle});
  const ImageRun run = run_image(
      runtime, driver::NetworkProgram::compile(s.net, s.model, test_config()),
      input);

  // Float oracle logits (last FC output, before softmax).
  const std::vector<nn::ActivationF> facts =
      nn::forward_f_all(s.net, s.weights, s.input_f);
  std::vector<float> flogits;
  for (std::size_t i = 0; i < s.net.layers().size(); ++i)
    if (s.net.layers()[i].kind == nn::LayerKind::kFullyConnected)
      flogits = facts[i].flat;
  ASSERT_FALSE(flogits.empty());
  ASSERT_EQ(flogits.size(), run.logits.size());

  const auto argmax_f = static_cast<std::size_t>(
      std::max_element(flogits.begin(), flogits.end()) - flogits.begin());
  const auto argmax_q = static_cast<std::size_t>(
      std::max_element(run.logits.begin(), run.logits.end()) -
      run.logits.begin());
  // Quantized and float argmax must agree on this input (strong signal that
  // scaling/shift bookkeeping is right end to end).
  EXPECT_EQ(argmax_q, argmax_f);
}

}  // namespace
}  // namespace tsca
