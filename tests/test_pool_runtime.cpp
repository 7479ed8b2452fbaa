// PoolRuntime determinism: simulated cycle counts, hardware counters, DMA
// statistics, and output feature maps must be bit-identical to the serial
// Runtime for any worker count — the pool changes wall-clock, never results.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/accelerator.hpp"
#include "driver/accelerator_pool.hpp"
#include "driver/pool_runtime.hpp"
#include "driver/program.hpp"
#include "driver/runtime.hpp"
#include "nn/vgg16.hpp"
#include "pack/weight_pack.hpp"
#include "quant/prune.hpp"
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

void expect_same_run(const driver::LayerRun& serial,
                     const driver::LayerRun& pooled) {
  EXPECT_EQ(serial.cycles, pooled.cycles);
  EXPECT_EQ(serial.stripes, pooled.stripes);
  EXPECT_EQ(serial.batches, pooled.batches);
  EXPECT_EQ(serial.macs, pooled.macs);
  EXPECT_EQ(serial.counters, pooled.counters);
  EXPECT_EQ(serial.dma, pooled.dma);
}

core::ArchConfig striped_config(int instances = 1) {
  core::ArchConfig cfg = core::ArchConfig::k256_opt();
  cfg.bank_words = 128;  // small banks force stripes + weight chunks
  cfg.instances = instances;
  return cfg;
}

// Worker counts below, equal to, and above the unit count all merge to the
// same result.
class PoolWorkers : public ::testing::TestWithParam<int> {};

TEST_P(PoolWorkers, ConvMatchesSerial) {
  Rng rng(101);
  const pack::TiledFm input = pack::to_tiled(random_fm({16, 28, 28}, rng));
  const pack::PackedFilters packed =
      pack::pack_filters(random_filters({16, 16, 3, 3}, 0.5, rng));
  const std::vector<std::int32_t> bias(16, -4);
  const nn::Requant rq{.shift = 6, .relu = true};

  for (const int instances : {1, 2}) {
    const core::ArchConfig cfg = striped_config(instances);
    const driver::ConvProgram conv =
        driver::compile_conv(cfg, input.shape(), packed, bias, rq);
    core::Accelerator acc(cfg);
    sim::Dram dram(32u << 20);
    sim::DmaEngine dma(dram);
    driver::Runtime serial(acc, dram, dma, {.mode = driver::ExecMode::kCycle});
    driver::LayerRun serial_run;
    const pack::TiledFm serial_out =
        conv_image(serial, input, conv, serial_run);

    driver::AcceleratorPool pool(cfg, {.workers = GetParam()});
    driver::PoolRuntime pooled(pool, {.mode = driver::ExecMode::kCycle});
    driver::LayerRun pooled_run;
    const pack::TiledFm pooled_out =
        conv_image(pooled, input, conv, pooled_run);

    EXPECT_GT(serial_run.stripes, 1);
    EXPECT_EQ(serial_out, pooled_out) << "instances=" << instances;
    expect_same_run(serial_run, pooled_run);
  }
}

TEST_P(PoolWorkers, MaxPoolMatchesSerial) {
  Rng rng(102);
  const nn::FeatureMapI8 image = random_fm({8, 14, 14}, rng);
  const nn::FmShape out_shape{8, 7, 7};

  const core::ArchConfig cfg = striped_config();
  const driver::PoolPlan plan = driver::compile_pool(
      cfg, image.shape(), out_shape, core::Opcode::kPool, 2, 2, 0, 0);
  core::Accelerator acc(cfg);
  sim::Dram dram(32u << 20);
  sim::DmaEngine dma(dram);
  driver::Runtime serial(acc, dram, dma, {.mode = driver::ExecMode::kCycle});
  driver::LayerRun serial_run;
  const pack::TiledFm serial_out =
      serial.run_pad_pool(pack::to_tiled(image), plan, serial_run);

  driver::AcceleratorPool pool(cfg, {.workers = GetParam()});
  driver::PoolRuntime pooled(pool, {.mode = driver::ExecMode::kCycle});
  driver::LayerRun pooled_run;
  const pack::TiledFm pooled_out =
      pooled.run_pad_pool(pack::to_tiled(image), plan, pooled_run);

  EXPECT_EQ(serial_out, pooled_out);
  expect_same_run(serial_run, pooled_run);
}

TEST_P(PoolWorkers, ConvBatchMatchesSerial) {
  Rng rng(103);
  constexpr int kBatch = 5;
  std::vector<pack::TiledFm> images;
  for (int i = 0; i < kBatch; ++i)
    images.push_back(pack::to_tiled(random_fm({16, 28, 28}, rng)));
  const pack::PackedFilters packed =
      pack::pack_filters(random_filters({16, 16, 3, 3}, 0.5, rng));
  const std::vector<std::int32_t> bias(16, 3);
  const nn::Requant rq{.shift = 6, .relu = true};

  const core::ArchConfig cfg = striped_config();
  const driver::ConvProgram conv =
      driver::compile_conv(cfg, images.front().shape(), packed, bias, rq);
  core::Accelerator acc(cfg);
  sim::Dram dram(32u << 20);
  sim::DmaEngine dma(dram);
  driver::Runtime serial(acc, dram, dma, {.mode = driver::ExecMode::kCycle});
  driver::LayerRun serial_run;
  std::vector<pack::TiledFm> serial_out = images;
  serial.run_conv_batch(serial_out, conv, serial_run);

  driver::AcceleratorPool pool(cfg, {.workers = GetParam()});
  driver::PoolRuntime pooled(pool, {.mode = driver::ExecMode::kCycle});
  driver::LayerRun pooled_run;
  std::vector<pack::TiledFm> pooled_out = images;
  pooled.run_conv_batch(pooled_out, conv, pooled_run);

  ASSERT_EQ(serial_out.size(), pooled_out.size());
  for (int i = 0; i < kBatch; ++i)
    EXPECT_EQ(serial_out[static_cast<std::size_t>(i)],
              pooled_out[static_cast<std::size_t>(i)])
        << "image " << i;
  expect_same_run(serial_run, pooled_run);
}

// Image parallelism at network scope: a batch of requests through the pool
// runtime matches the serial runtime's batch in every request's outputs and
// every layer's aggregate statistics.
TEST_P(PoolWorkers, ServeMatchesSerialPerRequest) {
  Rng rng(104);
  nn::Network net = nn::build_vgg16(
      {.input_extent = 32, .channel_divisor = 16, .num_classes = 10});
  nn::WeightsF weights = nn::init_random_weights(net, rng);
  quant::prune_weights(net, weights, quant::vgg16_han_profile());
  nn::FeatureMapF calib(net.input_shape());
  for (std::size_t i = 0; i < calib.size(); ++i)
    calib.data()[i] = static_cast<float>(rng.next_gaussian() * 0.4);
  const quant::QuantizedModel model =
      quant::quantize_network(net, weights, {calib});

  constexpr int kRequests = 3;
  std::vector<nn::FeatureMapI8> inputs;
  for (int i = 0; i < kRequests; ++i)
    inputs.push_back(random_fm(net.input_shape(), rng));

  const core::ArchConfig cfg = core::ArchConfig::k256_opt();
  const driver::NetworkProgram program =
      driver::NetworkProgram::compile(net, model, cfg);
  const driver::RuntimeOptions options{.mode = driver::ExecMode::kCycle};
  core::Accelerator acc(cfg);
  sim::Dram dram(64u << 20);
  sim::DmaEngine dma(dram);
  driver::Runtime serial(acc, dram, dma, options);
  const driver::BatchNetworkRun expected =
      serial.run_network_batch(program, inputs);

  driver::AcceleratorPool pool(cfg, {.workers = GetParam()});
  driver::PoolRuntime pooled(pool, options);
  const driver::BatchNetworkRun served =
      pooled.run_network_batch(program, inputs);

  ASSERT_EQ(served.requests.size(), expected.requests.size());
  for (int i = 0; i < kRequests; ++i) {
    const std::size_t r = static_cast<std::size_t>(i);
    const driver::NetworkRun& a = expected.requests[r];
    const driver::NetworkRun& b = served.requests[r];
    EXPECT_EQ(a.flat_output, b.flat_output) << "request " << i;
    EXPECT_EQ(a.logits, b.logits) << "request " << i;
  }
  ASSERT_EQ(expected.layers.size(), served.layers.size());
  for (std::size_t l = 0; l < expected.layers.size(); ++l) {
    SCOPED_TRACE("layer " + expected.layers[l].name);
    expect_same_run(expected.layers[l], served.layers[l]);
  }
}

// The network loop on a striped, multi-chunk program: a batch of one (one
// (image, stripe) unit per stripe, each stripe staged once) and a batch of
// several (weights accounted once per chunk) both match the serial runtime
// in every output and every layer's cycles, counters and DMA.
TEST_P(PoolWorkers, NetworkBatchesOfOneAndManyMatchSerial) {
  Rng rng(105);
  nn::Network net = nn::build_vgg16(
      {.input_extent = 32, .channel_divisor = 8, .num_classes = 10});
  nn::WeightsF weights = nn::init_random_weights(net, rng);
  quant::prune_weights(net, weights, quant::vgg16_han_profile());
  nn::FeatureMapF calib(net.input_shape());
  for (std::size_t i = 0; i < calib.size(); ++i)
    calib.data()[i] = static_cast<float>(rng.next_gaussian() * 0.4);
  const quant::QuantizedModel model =
      quant::quantize_network(net, weights, {calib});

  core::ArchConfig cfg = core::ArchConfig::k256_opt();
  cfg.bank_words = 256;  // striped convs with several weight chunks
  const driver::NetworkProgram program =
      driver::NetworkProgram::compile(net, model, cfg);
  const driver::RuntimeOptions options{.mode = driver::ExecMode::kCycle};

  for (const int images : {1, 3}) {
    SCOPED_TRACE("batch of " + std::to_string(images));
    std::vector<nn::FeatureMapI8> inputs;
    for (int i = 0; i < images; ++i)
      inputs.push_back(random_fm(net.input_shape(), rng));

    core::Accelerator acc(cfg);
    sim::Dram dram(64u << 20);
    sim::DmaEngine dma(dram);
    driver::Runtime serial(acc, dram, dma, options);
    const driver::BatchNetworkRun expected =
        serial.run_network_batch(program, inputs);

    driver::AcceleratorPool pool(cfg, {.workers = GetParam()});
    driver::PoolRuntime pooled(pool, options);
    const driver::BatchNetworkRun got =
        pooled.run_network_batch(program, inputs);

    ASSERT_EQ(got.requests.size(), expected.requests.size());
    for (std::size_t r = 0; r < expected.requests.size(); ++r)
      EXPECT_EQ(got.requests[r].logits, expected.requests[r].logits)
          << "image " << r;
    ASSERT_EQ(expected.layers.size(), got.layers.size());
    int striped = 0;
    for (std::size_t l = 0; l < expected.layers.size(); ++l) {
      SCOPED_TRACE("layer " + expected.layers[l].name);
      expect_same_run(expected.layers[l], got.layers[l]);
      if (expected.layers[l].kind == nn::LayerKind::kConv &&
          expected.layers[l].stripes > 1)
        ++striped;
    }
    EXPECT_GT(striped, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Workers, PoolWorkers, ::testing::Values(1, 2, 8),
                         [](const auto& info) {
                           return "w" + std::to_string(info.param);
                         });

// Workers genuinely overlap: 8 sleeping units on 8 workers finish in far
// less than 8 serial sleeps.  (Sleeps overlap even on a single CPU, so this
// holds on any host.)
TEST(AcceleratorPool, RunsUnitsConcurrently) {
  driver::AcceleratorPool pool(core::ArchConfig::k256_opt(), {.workers = 8});
  const auto t0 = std::chrono::steady_clock::now();
  pool.parallel_for(8, [](driver::AcceleratorPool::Context&, std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  });
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::milliseconds(1000));  // serial would be 1.6s
}

TEST(AcceleratorPool, PropagatesTaskExceptions) {
  driver::AcceleratorPool pool(core::ArchConfig::k256_opt(), {.workers = 2});
  EXPECT_THROW(pool.parallel_for(
                   8,
                   [](driver::AcceleratorPool::Context&, std::size_t i) {
                     if (i == 3) throw std::runtime_error("unit 3 failed");
                   }),
               std::runtime_error);
  // The pool stays usable after a failed job.
  std::atomic<int> done{0};
  pool.parallel_for(4, [&](driver::AcceleratorPool::Context&, std::size_t) {
    done.fetch_add(1);
  });
  EXPECT_EQ(done.load(), 4);
}

}  // namespace
}  // namespace tsca
