// NetworkProgram compile/execute split: compiling once and executing many
// times — serially, across pool workers, or across Server workers sharing
// one const program — must be bit-identical to a fresh compile per request
// in outputs, cycle counts, hardware counters, and DMA statistics.
#include <gtest/gtest.h>

#include <future>
#include <optional>
#include <string>
#include <vector>

#include "core/accelerator.hpp"
#include "driver/accelerator_pool.hpp"
#include "driver/pool_runtime.hpp"
#include "driver/program.hpp"
#include "driver/program_registry.hpp"
#include "driver/runtime.hpp"
#include "nn/vgg16.hpp"
#include "pack/weight_pack.hpp"
#include "quant/prune.hpp"
#include "quant/quantize.hpp"
#include "serve/server.hpp"
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

void expect_same_run(const driver::LayerRun& a, const driver::LayerRun& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.stripes, b.stripes);
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.macs, b.macs);
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.dma, b.dma);
}

void expect_same_network_run(const ImageRun& a, const ImageRun& b) {
  EXPECT_EQ(a.flat_output, b.flat_output);
  EXPECT_EQ(a.logits, b.logits);
  ASSERT_EQ(a.layers.size(), b.layers.size());
  for (std::size_t l = 0; l < a.layers.size(); ++l) {
    SCOPED_TRACE("layer " + a.layers[l].name);
    EXPECT_EQ(a.layers[l].name, b.layers[l].name);
    EXPECT_EQ(a.layers[l].kind, b.layers[l].kind);
    expect_same_run(a.layers[l], b.layers[l]);
  }
}

core::ArchConfig striped_config(int instances = 1) {
  core::ArchConfig cfg = core::ArchConfig::k256_opt();
  cfg.bank_words = 128;  // small banks force stripes + weight chunks
  cfg.instances = instances;
  return cfg;
}

struct Vgg16Fixture {
  explicit Vgg16Fixture(std::uint64_t seed) : rng(seed) {
    net = nn::build_vgg16(
        {.input_extent = 32, .channel_divisor = 16, .num_classes = 10});
    nn::WeightsF weights = nn::init_random_weights(net, rng);
    quant::prune_weights(net, weights, quant::vgg16_han_profile());
    nn::FeatureMapF calib(net.input_shape());
    for (std::size_t i = 0; i < calib.size(); ++i)
      calib.data()[i] = static_cast<float>(rng.next_gaussian() * 0.4);
    model = quant::quantize_network(net, weights, {calib});
  }

  Rng rng;
  nn::Network net{nn::FmShape{}};
  quant::QuantizedModel model;
};

// The compiled step list mirrors the network: every layer is covered exactly
// once, fused steps consume the pad and the following conv, and disabling
// fusion removes every fused step.
TEST(Program, CompileResolvesStepsAndFusion) {
  Vgg16Fixture fx(301);
  const core::ArchConfig cfg = core::ArchConfig::k256_opt();

  const driver::NetworkProgram fused =
      driver::NetworkProgram::compile(fx.net, fx.model, cfg);
  std::size_t covered = 0;
  bool any_fused = false;
  for (const driver::NetworkProgram::Step& step : fused.steps()) {
    EXPECT_EQ(step.layer, covered);
    if (step.exec == driver::NetworkProgram::Step::Exec::kFusedPadConv) {
      any_fused = true;
      EXPECT_GE(step.conv, 0);
      EXPECT_GE(step.fused, 0);
      // Fused layers carry no striped plan; striped layers always do.
      EXPECT_TRUE(fused.conv(step.conv).plan.stripes.empty());
      covered += 2;
    } else {
      if (step.exec == driver::NetworkProgram::Step::Exec::kConv)
        EXPECT_FALSE(fused.conv(step.conv).plan.stripes.empty());
      covered += 1;
    }
  }
  EXPECT_EQ(covered, fx.net.layers().size());
  EXPECT_TRUE(any_fused) << "VGG16 pad+conv layers should fuse on 256-opt";
  EXPECT_FALSE(fused.ddr_image().empty());
  EXPECT_NE(fused.stamp(), 0u);

  const driver::NetworkProgram unfused = driver::NetworkProgram::compile(
      fx.net, fx.model, cfg, {.fuse_pad_conv = false});
  for (const driver::NetworkProgram::Step& step : unfused.steps())
    EXPECT_NE(step.exec, driver::NetworkProgram::Step::Exec::kFusedPadConv);
  EXPECT_NE(unfused.stamp(), fused.stamp());
}

// Compile once, execute N requests on one runtime: every request is
// bit-identical to a fresh-compile-per-request run on a fresh runtime.
TEST(Program, CompileOnceExecuteManyMatchesFreshCompile) {
  Vgg16Fixture fx(302);
  const core::ArchConfig cfg = core::ArchConfig::k256_opt();
  const driver::RuntimeOptions options{.mode = driver::ExecMode::kCycle};

  constexpr int kRequests = 3;
  std::vector<nn::FeatureMapI8> inputs;
  for (int i = 0; i < kRequests; ++i)
    inputs.push_back(random_fm(fx.net.input_shape(), fx.rng));

  std::vector<ImageRun> baseline;
  for (const nn::FeatureMapI8& input : inputs) {
    core::Accelerator acc(cfg);
    sim::Dram dram(64u << 20);
    sim::DmaEngine dma(dram);
    driver::Runtime runtime(acc, dram, dma, options);
    baseline.push_back(run_image(
        runtime, driver::NetworkProgram::compile(fx.net, fx.model, cfg),
        input));
  }

  const driver::NetworkProgram program =
      driver::NetworkProgram::compile(fx.net, fx.model, cfg);
  core::Accelerator acc(cfg);
  sim::Dram dram(64u << 20);
  sim::DmaEngine dma(dram);
  driver::Runtime runtime(acc, dram, dma, options);
  for (int i = 0; i < kRequests; ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    const ImageRun run = run_image(runtime, program, inputs[i]);
    expect_same_network_run(baseline[static_cast<std::size_t>(i)], run);
  }
}

// Alternating two programs on one runtime re-stages the weight image each
// switch and still matches fresh-runtime baselines for both networks.
TEST(Program, RestagesWhenProgramsAlternate) {
  Vgg16Fixture fx(303);
  const core::ArchConfig cfg = core::ArchConfig::k256_opt();
  const driver::RuntimeOptions options{.mode = driver::ExecMode::kCycle};
  const nn::FeatureMapI8 input = random_fm(fx.net.input_shape(), fx.rng);

  const driver::NetworkProgram fused =
      driver::NetworkProgram::compile(fx.net, fx.model, cfg);
  const driver::NetworkProgram unfused = driver::NetworkProgram::compile(
      fx.net, fx.model, cfg, {.fuse_pad_conv = false});

  ImageRun base_fused, base_unfused;
  {
    core::Accelerator acc(cfg);
    sim::Dram dram(64u << 20);
    sim::DmaEngine dma(dram);
    driver::Runtime runtime(acc, dram, dma, options);
    base_fused = run_image(runtime, fused, input);
  }
  {
    core::Accelerator acc(cfg);
    sim::Dram dram(64u << 20);
    sim::DmaEngine dma(dram);
    driver::Runtime runtime(acc, dram, dma, options);
    base_unfused = run_image(runtime, unfused, input);
  }

  core::Accelerator acc(cfg);
  sim::Dram dram(64u << 20);
  sim::DmaEngine dma(dram);
  driver::Runtime runtime(acc, dram, dma, options);
  expect_same_network_run(base_fused, run_image(runtime, fused, input));
  expect_same_network_run(base_unfused, run_image(runtime, unfused, input));
  expect_same_network_run(base_fused, run_image(runtime, fused, input));
}

// The compiler fuses a pad into the following conv exactly when the fit
// check admits the fusion for that shape and config.
TEST(Program, FusionDecisionMatchesRuntimeCheck) {
  Rng rng(307);
  const nn::Padding pad{1, 1, 1, 1};
  nn::Network net({16, 14, 14});
  net.add_pad(pad).add_conv({.out_c = 16, .kernel = 3});
  const nn::WeightsF weights = nn::init_random_weights(net, rng);
  nn::FeatureMapF calib(net.input_shape());
  for (std::size_t i = 0; i < calib.size(); ++i)
    calib.data()[i] = static_cast<float>(rng.next_gaussian() * 0.4);
  const quant::QuantizedModel model =
      quant::quantize_network(net, weights, {calib});

  const core::ArchConfig big = core::ArchConfig::k256_opt();
  core::ArchConfig small = big;
  small.bank_words = 128;
  std::vector<bool> fused;
  for (const core::ArchConfig& cfg : {big, small}) {
    const driver::WeightImage wimg(pack::pack_filters(model.weights.conv[1]),
                                   cfg.lanes, cfg.group);
    const bool fits =
        driver::plan_fused_pad_conv(cfg, net.input_shape(), pad, 3, 16, wimg)
            .has_value();
    const driver::NetworkProgram program =
        driver::NetworkProgram::compile(net, model, cfg);
    fused.push_back(program.steps().front().exec ==
                    driver::NetworkProgram::Step::Exec::kFusedPadConv);
    EXPECT_EQ(fits, fused.back()) << "bank_words=" << cfg.bank_words;
  }
  EXPECT_NE(fused[0], fused[1]) << "one config should fuse, the other not";
}

// ExecMode::kFast executes what the compiler finished and nothing else: a
// pad/pool plan without its decoded fast plans, or a conv or fusion without
// decoded weights, is refused rather than re-derived on every call.  The
// compiled forms of the same layers run.
TEST(Program, FastPathRefusesUnfinishedArtifacts) {
  Rng rng(310);
  const core::ArchConfig cfg = striped_config();
  const pack::TiledFm input = pack::to_tiled(random_fm({16, 28, 28}, rng));
  const pack::PackedFilters packed =
      pack::pack_filters(random_filters({16, 16, 3, 3}, 0.5, rng));
  const std::vector<std::int32_t> bias(16, -4);
  const nn::Requant rq{.shift = 6, .relu = true};
  const nn::FmShape pooled_shape{16, 14, 14};

  core::Accelerator acc(cfg);
  sim::Dram dram(32u << 20);
  sim::DmaEngine dma(dram);
  driver::Runtime runtime(acc, dram, dma, {.mode = driver::ExecMode::kFast});
  driver::AcceleratorPool pool(cfg, {.workers = 2});
  driver::PoolRuntime pooled(pool, {.mode = driver::ExecMode::kFast});
  driver::LayerRun run;

  const driver::PoolPlan bare_plan = driver::plan_pool(
      cfg, input.shape(), pooled_shape, core::Opcode::kPool, 2, 2, 0, 0);
  ASSERT_TRUE(bare_plan.fastp.empty());
  EXPECT_THROW(runtime.run_pad_pool(input, bare_plan, run), Error);
  EXPECT_THROW(pooled.run_pad_pool(input, bare_plan, run), Error);

  driver::ConvProgram bare_conv =
      driver::compile_conv(cfg, input.shape(), packed, bias, rq);
  bare_conv.fastw = core::FastConvWeights{};
  EXPECT_THROW(conv_image(runtime, input, bare_conv, run), Error);
  EXPECT_THROW(conv_image(pooled, input, bare_conv, run), Error);
  std::vector<pack::TiledFm> pair{input, input};
  EXPECT_THROW(runtime.run_conv_batch(pair, bare_conv, run), Error);

  const core::ArchConfig big = core::ArchConfig::k256_opt();
  std::optional<driver::FusedPadConv> fused = driver::compile_fused_pad_conv(
      big, input.shape(), nn::Padding::uniform(1), packed, bias, rq);
  ASSERT_TRUE(fused.has_value());
  fused->conv.fastw = core::FastConvWeights{};
  core::Accelerator big_acc(big);
  driver::Runtime big_runtime(big_acc, dram, dma,
                              {.mode = driver::ExecMode::kFast});
  driver::LayerRun pad_run;
  EXPECT_THROW(fused_image(big_runtime, input, fused->conv, fused->layout,
                           pad_run, run),
               Error);

  EXPECT_NO_THROW(runtime.run_pad_pool(
      input,
      driver::compile_pool(cfg, input.shape(), pooled_shape,
                           core::Opcode::kPool, 2, 2, 0, 0),
      run));
  EXPECT_NO_THROW(conv_image(
      runtime, input,
      driver::compile_conv(cfg, input.shape(), packed, bias, rq), run));
}

// Workers share one const NetworkProgram: Server workers serving it, and
// PoolRuntime workers splitting its stripes.  Exercised under TSan by the
// sanitize-thread tier-1 configuration; results stay bit-identical to
// serial runtimes for every worker count.
class ProgramPoolWorkers : public ::testing::TestWithParam<int> {};

// Every request's logits, and the simulated cycles the Server's workers
// record in total, match serial batch-of-one runs of the same program.
TEST_P(ProgramPoolWorkers, ServeSharedProgramMatchesSerial) {
  Vgg16Fixture fx(308);
  const core::ArchConfig cfg = core::ArchConfig::k256_opt();

  constexpr int kRequests = 6;
  std::vector<nn::FeatureMapI8> inputs;
  for (int i = 0; i < kRequests; ++i)
    inputs.push_back(random_fm(fx.net.input_shape(), fx.rng));

  const driver::NetworkProgram program =
      driver::NetworkProgram::compile(fx.net, fx.model, cfg);
  std::vector<std::vector<std::int8_t>> expected;
  std::int64_t expected_cycles = 0;
  {
    core::Accelerator acc(cfg);
    sim::Dram dram(64u << 20);
    sim::DmaEngine dma(dram);
    driver::Runtime runtime(acc, dram, dma, {.mode = driver::ExecMode::kCycle});
    for (const nn::FeatureMapI8& input : inputs) {
      const driver::BatchNetworkRun run =
          runtime.run_network_batch(program, {input});
      expected.push_back(run.requests.front().logits);
      for (const driver::LayerRun& lr : run.layers)
        expected_cycles += static_cast<std::int64_t>(lr.cycles);
    }
  }

  driver::ProgramRegistry registry(cfg);
  registry.add_model("vgg", fx.net, fx.model);
  obs::MetricsRegistry metrics;
  {
    serve::Server server(registry, "vgg",
                         {.workers = GetParam(),
                          .batch = {.max_batch = 1},
                          .mode = driver::ExecMode::kCycle,
                          .metrics = &metrics});
    std::vector<std::future<serve::Response>> futures;
    for (const nn::FeatureMapI8& input : inputs)
      futures.push_back(server.submit(input));
    for (int i = 0; i < kRequests; ++i) {
      const serve::Response r = futures[static_cast<std::size_t>(i)].get();
      ASSERT_EQ(r.status, serve::Status::kOk) << "request " << i;
      EXPECT_EQ(r.logits, expected[static_cast<std::size_t>(i)])
          << "request " << i;
    }
  }
  EXPECT_EQ(metrics.counter("runtime.accel_cycles").value(), expected_cycles);
}

TEST_P(ProgramPoolWorkers, PooledStripedLayersShareProgram) {
  Rng rng(309);
  const pack::TiledFm input = pack::to_tiled(random_fm({16, 28, 28}, rng));
  const pack::PackedFilters packed =
      pack::pack_filters(random_filters({16, 16, 3, 3}, 0.5, rng));
  const std::vector<std::int32_t> bias(16, -4);
  const nn::Requant rq{.shift = 6, .relu = true};
  const core::ArchConfig cfg = striped_config();

  const driver::ConvProgram conv =
      driver::compile_conv(cfg, input.shape(), packed, bias, rq);

  driver::LayerRun serial_run;
  pack::TiledFm serial_out;
  {
    core::Accelerator acc(cfg);
    sim::Dram dram(32u << 20);
    sim::DmaEngine dma(dram);
    driver::Runtime runtime(acc, dram, dma, {.mode = driver::ExecMode::kCycle});
    serial_out = conv_image(runtime, input, conv, serial_run);
  }

  driver::AcceleratorPool pool(cfg, {.workers = GetParam()});
  driver::PoolRuntime pooled(pool, {.mode = driver::ExecMode::kCycle});
  driver::LayerRun pooled_run;
  const pack::TiledFm pooled_out = conv_image(pooled, input, conv, pooled_run);

  EXPECT_GT(serial_run.stripes, 1);
  EXPECT_EQ(serial_out, pooled_out);
  expect_same_run(serial_run, pooled_run);
}

INSTANTIATE_TEST_SUITE_P(Workers, ProgramPoolWorkers,
                         ::testing::Values(1, 2, 8), [](const auto& info) {
                           return "w" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace tsca
