// Batched convolution: weight-amortized multi-image execution.
#include <gtest/gtest.h>

#include "core/accelerator.hpp"
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
  std::vector<pack::TiledFm> outputs = tiled;
  runtime.run_conv_batch(outputs,
                         driver::compile_conv(cfg, tiled.front().shape(),
                                              pack::pack_filters(filters),
                                              bias, rq),
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
      std::vector<pack::TiledFm> fms = tiled;
      runtime.run_conv_batch(fms, conv, run);
    } else {
      for (const pack::TiledFm& image : tiled) {
        driver::LayerRun run;
        conv_image(runtime, image, conv, run);
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

// Channel-scaled VGG-16 (/8, 32 px) with random Han-pruned weights and one
// calibrated input — the benchmark's vgg16_div8 recipe.
struct Vgg8 {
  Vgg8() {
    Rng rng(2024);
    net = nn::build_vgg16(
        {.input_extent = 32, .channel_divisor = 8, .num_classes = 10});
    nn::WeightsF weights = nn::init_random_weights(net, rng);
    quant::prune_weights(net, weights, quant::vgg16_han_profile());
    nn::FeatureMapF calib(net.input_shape());
    for (std::size_t i = 0; i < calib.size(); ++i)
      calib.data()[i] = static_cast<float>(rng.next_gaussian() * 0.4);
    model = quant::quantize_network(net, weights, {calib});
    Rng image_rng(7);
    input = random_fm(net.input_shape(), image_rng);
  }

  nn::Network net{nn::FmShape{}};
  quant::QuantizedModel model;
  nn::FeatureMapI8 input;
};

// One accelerator layer's statistics: cycles, instruction batches, DMA
// {transfers, bytes to FPGA, bytes to DRAM, modelled cycles} and the
// hardware counters in CounterSnapshot field order.
struct PinnedLayer {
  const char* name;
  std::uint64_t cycles;
  int batches;
  sim::DmaStats dma;
  core::CounterSnapshot counters;
};

// The single-image schedule on Vgg8 with 256-word banks: each conv input
// stripe is staged once per stripe, then every weight chunk of the stripe
// runs against it.
const PinnedLayer kSingleImageVgg8Bank256[] = {
    {"pad1_1", 393, 1, {6, 3072, 3888, 447},
     {0, 0, 0, 768, 0, 0, 243, 1152, 0, 1, 0, 0}},
    {"conv1_1", 1041, 1, {13, 4162, 8192, 885},
     {2752, 3008, 128000, 1536, 19, 0, 512, 0, 2, 0, 0, 128}},
    {"pad1_2", 788, 2, {16, 9216, 10368, 1220},
     {0, 0, 0, 2048, 0, 0, 648, 3072, 0, 2, 0, 0}},
    {"conv1_2", 1260, 2, {32, 12156, 8192, 1862},
     {3584, 6208, 130048, 4096, 46, 0, 512, 0, 4, 0, 0, 128}},
    {"pool1", 138, 1, {8, 8192, 2048, 624},
     {0, 0, 0, 512, 0, 0, 128, 512, 0, 0, 1, 0}},
    {"pad2_1", 202, 1, {0, 0, 0, 0},
     {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"conv2_1", 739, 1, {24, 2960, 4096, 1138},
     {2384, 3264, 100352, 2560, 65, 0, 456, 768, 4, 1, 0, 64}},
    {"pad2_2", 394, 1, {8, 4096, 6400, 632},
     {0, 0, 0, 1024, 0, 0, 400, 1536, 0, 1, 0, 0}},
    {"conv2_2", 1350, 1, {24, 8314, 4096, 1306},
     {4720, 5616, 212224, 4096, 126, 0, 256, 0, 4, 0, 0, 64}},
    {"pool2", 74, 1, {8, 4096, 1024, 464},
     {0, 0, 0, 256, 0, 0, 64, 256, 0, 0, 1, 0}},
    {"pad3_1", 106, 1, {0, 0, 0, 0},
     {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"conv3_1", 926, 1, {40, 6420, 2048, 1801},
     {3336, 3576, 156288, 2304, 352, 0, 272, 384, 8, 1, 0, 32}},
    {"pad3_2", 202, 1, {0, 0, 0, 0},
     {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"conv3_2", 1173, 1, {40, 7496, 2048, 1834},
     {3552, 5360, 141568, 4608, 354, 0, 416, 768, 8, 1, 0, 32}},
    {"pad3_3", 202, 1, {8, 2048, 4608, 512},
     {0, 0, 0, 512, 0, 0, 288, 768, 0, 1, 0, 0}},
    {"conv3_3", 1490, 1, {40, 13374, 2048, 2018},
     {5444, 6292, 247744, 4096, 564, 0, 128, 0, 8, 0, 0, 32}},
    {"pool3", 42, 1, {8, 2048, 512, 384},
     {0, 0, 0, 128, 0, 0, 32, 128, 0, 0, 1, 0}},
    {"pad4_1", 58, 1, {8, 512, 2048, 384},
     {0, 0, 0, 128, 0, 0, 128, 192, 0, 1, 0, 0}},
    {"conv4_1", 820, 2, {72, 15892, 1024, 3296},
     {2257, 3130, 94368, 2048, 895, 0, 64, 0, 16, 0, 0, 16}},
    {"pad4_2", 106, 1, {8, 1024, 4096, 464},
     {0, 0, 0, 256, 0, 0, 256, 384, 0, 1, 0, 0}},
    {"conv4_2", 1505, 3, {72, 28098, 1024, 3677},
     {3935, 5787, 159248, 4096, 1526, 0, 64, 0, 16, 0, 0, 16}},
    {"pad4_3", 106, 1, {8, 1024, 4096, 464},
     {0, 0, 0, 256, 0, 0, 256, 384, 0, 1, 0, 0}},
    {"conv4_3", 1638, 4, {72, 33260, 1024, 3836},
     {4649, 6062, 200544, 4096, 1850, 0, 64, 0, 16, 0, 0, 16}},
    {"pool4", 26, 1, {8, 1024, 1024, 368},
     {0, 0, 0, 64, 0, 0, 64, 64, 0, 0, 1, 0}},
    {"pad5_1", 26, 1, {8, 1024, 1024, 368},
     {0, 0, 0, 64, 0, 0, 64, 64, 0, 1, 0, 0}},
    {"conv5_1", 1631, 3, {72, 30924, 1024, 3763},
     {4752, 6106, 206432, 1024, 1897, 0, 64, 0, 16, 0, 0, 16}},
    {"pad5_2", 26, 1, {8, 1024, 1024, 368},
     {0, 0, 0, 64, 0, 0, 64, 64, 0, 1, 0, 0}},
    {"conv5_2", 1514, 2, {72, 26502, 1024, 3623},
     {4164, 5965, 171056, 1024, 1622, 0, 64, 0, 16, 0, 0, 16}},
    {"pad5_3", 26, 1, {8, 1024, 1024, 368},
     {0, 0, 0, 64, 0, 0, 64, 64, 0, 1, 0, 0}},
    {"conv5_3", 1642, 3, {72, 31662, 1024, 3791},
     {4835, 6069, 212336, 1024, 1947, 0, 64, 0, 16, 0, 0, 16}},
    {"pool5", 26, 1, {8, 1024, 1024, 368},
     {0, 0, 0, 64, 0, 0, 64, 64, 0, 0, 1, 0}},
};

// A batch of one runs that single-image schedule exactly — layer by layer,
// DMA included.  Six convs split their weights into several chunks here, so
// restaging the input stripe per chunk (the multi-image schedule) would
// move 27,648 more bytes to the FPGA.
TEST(BatchOfOne, MovesExactlyTheSingleImageDma) {
  const Vgg8 vgg;
  core::ArchConfig cfg = core::ArchConfig::k256_opt();
  cfg.bank_words = 256;
  const driver::NetworkProgram program =
      driver::NetworkProgram::compile(vgg.net, vgg.model, cfg);
  int multi_chunk = 0;
  for (const driver::NetworkProgram::Step& step : program.steps()) {
    if (step.exec != driver::NetworkProgram::Step::Exec::kConv) continue;
    bool chunked = false;
    for (const driver::ConvStripe& stripe :
         program.conv(step.conv).plan.stripes)
      chunked = chunked || stripe.chunks.size() > 1;
    multi_chunk += chunked ? 1 : 0;
  }
  EXPECT_EQ(multi_chunk, 6);

  core::Accelerator acc(cfg);
  sim::Dram dram(32u << 20);
  sim::DmaEngine dma(dram);
  driver::Runtime runtime(acc, dram, dma, {.mode = driver::ExecMode::kCycle});
  const driver::BatchNetworkRun run =
      runtime.run_network_batch(program, {vgg.input});

  std::vector<const driver::LayerRun*> accel;
  for (const driver::LayerRun& lr : run.layers)
    if (lr.on_accelerator) accel.push_back(&lr);
  ASSERT_EQ(accel.size(), std::size(kSingleImageVgg8Bank256));
  std::uint64_t cycles = 0;
  sim::DmaStats total;
  for (std::size_t i = 0; i < accel.size(); ++i) {
    const PinnedLayer& want = kSingleImageVgg8Bank256[i];
    const driver::LayerRun& got = *accel[i];
    SCOPED_TRACE(want.name);
    EXPECT_EQ(got.name, want.name);
    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(got.batches, want.batches);
    EXPECT_EQ(got.dma, want.dma);
    EXPECT_EQ(got.counters, want.counters);
    cycles += got.cycles;
    total += got.dma;
  }
  EXPECT_EQ(cycles, 19'670u);
  EXPECT_EQ(total.bytes_to_fpga, 261'668u);
  EXPECT_EQ(total.bytes_to_dram, 81'072u);
}

// Every step is timed in every mode, fused PAD+CONV steps included (the
// whole fusion is charged to the CONV record).  At 32 px every VGG conv
// fuses with its pad on 256-opt, so this covers the fused engine path.
TEST(BatchNetworkRun, EveryConvRecordOfACycleBatchIsTimed) {
  const Vgg8 vgg;
  const core::ArchConfig cfg = core::ArchConfig::k256_opt();
  const driver::NetworkProgram program =
      driver::NetworkProgram::compile(vgg.net, vgg.model, cfg);
  core::Accelerator acc(cfg);
  sim::Dram dram(32u << 20);
  sim::DmaEngine dma(dram);
  driver::Runtime runtime(acc, dram, dma, {.mode = driver::ExecMode::kCycle});
  const driver::BatchNetworkRun run =
      runtime.run_network_batch(program, {vgg.input});
  int convs = 0;
  for (const driver::LayerRun& lr : run.layers) {
    if (lr.kind != nn::LayerKind::kConv) continue;
    ++convs;
    EXPECT_GT(lr.host_wall_us, 0) << lr.name;
  }
  EXPECT_EQ(convs, 13);
}

// A fused PAD+CONV keeps its weight streams in a bank region of their own
// that no image writes, so a kCycle batch stages them once: three images
// move three raw inputs and one set of weights, and the batch's cycles,
// counters and outputs equal those of three batches of one.
TEST(BatchNetworkRun, FusedConvStagesWeightsOncePerBatch) {
  const Vgg8 vgg;
  const core::ArchConfig cfg = core::ArchConfig::k256_opt();
  const driver::NetworkProgram program =
      driver::NetworkProgram::compile(vgg.net, vgg.model, cfg);
  core::Accelerator acc(cfg);
  sim::Dram dram(32u << 20);
  sim::DmaEngine dma(dram);
  driver::Runtime runtime(acc, dram, dma, {.mode = driver::ExecMode::kCycle});
  Rng rng(29);
  const std::vector<nn::FeatureMapI8> images{
      vgg.input, random_fm(vgg.net.input_shape(), rng),
      random_fm(vgg.net.input_shape(), rng)};
  const driver::BatchNetworkRun batch =
      runtime.run_network_batch(program, images);
  std::vector<driver::BatchNetworkRun> singles;
  for (const nn::FeatureMapI8& image : images)
    singles.push_back(runtime.run_network_batch(program, {image}));

  auto conv_bytes_to_fpga = [](const driver::BatchNetworkRun& run) {
    std::uint64_t bytes = 0;
    for (const driver::LayerRun& lr : run.layers)
      if (lr.kind == nn::LayerKind::kConv && lr.on_accelerator)
        bytes += lr.dma.bytes_to_fpga;
    return bytes;
  };
  // 28,160 B of raw inputs and 176,054 B of weights per pass.
  EXPECT_EQ(conv_bytes_to_fpga(singles[0]), 28'160u + 176'054u);
  EXPECT_EQ(conv_bytes_to_fpga(batch), 3u * 28'160u + 176'054u);

  ASSERT_EQ(batch.requests.size(), images.size());
  for (std::size_t i = 0; i < batch.layers.size(); ++i) {
    const driver::LayerRun& got = batch.layers[i];
    SCOPED_TRACE(got.name);
    std::uint64_t cycles = 0;
    core::CounterSnapshot counters;
    for (const driver::BatchNetworkRun& single : singles) {
      cycles += single.layers[i].cycles;
      counters += single.layers[i].counters;
    }
    EXPECT_EQ(got.cycles, cycles);
    EXPECT_EQ(got.counters, counters);
  }
  for (std::size_t img = 0; img < images.size(); ++img)
    EXPECT_EQ(batch.requests[img].logits, singles[img].requests[0].logits)
        << "image " << img;
}

}  // namespace
}  // namespace tsca
