// Statistics-integrity regressions:
//  - LayerRun reuse: entry points must fully reset the caller's LayerRun, so
//    reusing one across calls cannot accumulate stale batches/counters/DMA.
//  - DmaStats subtraction must refuse to underflow (a reset inside a
//    measurement window used to wrap the unsigned deltas into garbage).
//  - PerfModel position counts must stay 64-bit: tiles_y × tiles_x of a
//    large feature map exceeds 2^31, and the old int narrowing flipped the
//    zero-skip statistics negative.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/accelerator.hpp"
#include "driver/accelerator_pool.hpp"
#include "driver/perf_model.hpp"
#include "driver/pool_runtime.hpp"
#include "driver/runtime.hpp"
#include "pack/weight_pack.hpp"
#include "sim/dma.hpp"
#include "sim/dram.hpp"
#include "sim/sram.hpp"
#include "util/check.hpp"
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

core::ArchConfig striped_config() {
  core::ArchConfig cfg = core::ArchConfig::k256_opt();
  cfg.bank_words = 128;  // small banks force stripes + weight chunks
  return cfg;
}

void expect_equal_runs(const driver::LayerRun& a, const driver::LayerRun& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.macs, b.macs);
  EXPECT_EQ(a.stripes, b.stripes);
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.dma, b.dma);
}

// Calling run_conv twice with the same LayerRun must report the same
// statistics both times — the second call used to accumulate batches and
// MACs on top of the first.
TEST(LayerRunReuse, ConvSecondCallMatchesFirst) {
  Rng rng(11);
  const pack::TiledFm input = pack::to_tiled(random_fm({8, 20, 20}, rng));
  const pack::PackedFilters packed =
      pack::pack_filters(random_filters({8, 8, 3, 3}, 0.5, rng));
  const std::vector<std::int32_t> bias(8, 2);
  const nn::Requant rq{.shift = 6, .relu = true};

  core::Accelerator acc(striped_config());
  sim::Dram dram(32u << 20);
  sim::DmaEngine dma(dram);
  driver::Runtime rt(acc, dram, dma, {.mode = driver::ExecMode::kCycle});
  const driver::ConvProgram conv =
      driver::compile_conv(acc.config(), input.shape(), packed, bias, rq);

  driver::LayerRun run;
  conv_image(rt, input, conv, run);
  const driver::LayerRun first = run;
  EXPECT_GT(first.batches, 0);
  EXPECT_GT(first.dma.transfers, 0u);

  conv_image(rt, input, conv, run);
  expect_equal_runs(first, run);
}

TEST(LayerRunReuse, PadPoolSecondCallMatchesFirst) {
  Rng rng(12);
  const pack::TiledFm input = pack::to_tiled(random_fm({8, 14, 14}, rng));
  core::Accelerator acc(striped_config());
  sim::Dram dram(32u << 20);
  sim::DmaEngine dma(dram);
  driver::Runtime rt(acc, dram, dma, {.mode = driver::ExecMode::kCycle});

  const driver::PoolPlan plan = driver::compile_pool(
      acc.config(), input.shape(), {8, 7, 7}, core::Opcode::kPool, 2, 2, 0, 0);

  driver::LayerRun run;
  rt.run_pad_pool(input, plan, run);
  const driver::LayerRun first = run;
  rt.run_pad_pool(input, plan, run);
  expect_equal_runs(first, run);
}

TEST(LayerRunReuse, ConvBatchSecondCallMatchesFirst) {
  Rng rng(13);
  std::vector<pack::TiledFm> images;
  for (int i = 0; i < 3; ++i)
    images.push_back(pack::to_tiled(random_fm({8, 12, 12}, rng)));
  const pack::PackedFilters packed =
      pack::pack_filters(random_filters({8, 8, 3, 3}, 0.4, rng));
  const std::vector<std::int32_t> bias(8, 0);
  const nn::Requant rq{.shift = 6, .relu = false};

  core::Accelerator acc(striped_config());
  sim::Dram dram(32u << 20);
  sim::DmaEngine dma(dram);
  driver::Runtime rt(acc, dram, dma, {.mode = driver::ExecMode::kCycle});

  const driver::ConvProgram conv = driver::compile_conv(
      acc.config(), images.front().shape(), packed, bias, rq);

  driver::LayerRun run;
  std::vector<pack::TiledFm> fms = images;
  rt.run_conv_batch(fms, conv, run);
  const driver::LayerRun first = run;
  fms = images;
  rt.run_conv_batch(fms, conv, run);
  expect_equal_runs(first, run);
}

// The pooled runtime resets too — and a run dirtied by a previous (serial)
// layer must not leak into the pooled statistics.
TEST(LayerRunReuse, PoolRuntimeResetsDirtyRun) {
  Rng rng(14);
  const pack::TiledFm input = pack::to_tiled(random_fm({8, 20, 20}, rng));
  const pack::PackedFilters packed =
      pack::pack_filters(random_filters({8, 8, 3, 3}, 0.5, rng));
  const std::vector<std::int32_t> bias(8, 1);
  const nn::Requant rq{.shift = 6, .relu = true};

  driver::AcceleratorPool pool(striped_config(), {.workers = 2});
  driver::PoolRuntime rt(pool, {.mode = driver::ExecMode::kCycle});
  const driver::ConvProgram conv =
      driver::compile_conv(pool.config(), input.shape(), packed, bias, rq);

  driver::LayerRun run;
  conv_image(rt, input, conv, run);
  const driver::LayerRun first = run;
  run.batches = 999;  // pre-dirtied caller state must not survive
  run.macs = -5;
  conv_image(rt, input, conv, run);
  expect_equal_runs(first, run);
}

// DmaStats{after} - DmaStats{before} must throw instead of wrapping when a
// counter moved backwards — the classic misuse is reset_stats() between the
// snapshot and the subtraction.
TEST(DmaStatsGuard, SubtractionRefusesUnderflow) {
  sim::Dram dram(1u << 20);
  sim::DmaEngine dma(dram);
  sim::SramBank bank("b", 256);

  dma.to_bank(bank, 0, 0, 64);
  const sim::DmaStats before = dma.stats();
  EXPECT_EQ(before.transfers, 1u);

  dma.reset_stats();  // the misuse: rollback inside a measurement window
  dma.to_bank(bank, 0, 0, 16);
  EXPECT_THROW(
      {
        const sim::DmaStats delta = dma.stats() - before;
        (void)delta;
      },
      Error);

  // A well-ordered window still subtracts cleanly.
  const sim::DmaStats start = dma.stats();
  dma.to_bank(bank, 0, 0, 32);
  const sim::DmaStats delta = dma.stats() - start;
  EXPECT_EQ(delta.transfers, 1u);
  EXPECT_EQ(delta.bytes_to_fpga, 32u);
}

// tiles_y × tiles_x of this map is ~2.62e9 > 2^31.  The old int narrowing
// of positions_total made weight_cmds/macs_performed go negative.
TEST(PerfModelOverflow, PositionCountStaysInt64) {
  core::ArchConfig cfg = core::ArchConfig::k256_opt();
  cfg.bank_words = 1'000'000;  // keep the stripe count manageable
  const driver::PerfModel model(cfg);

  const nn::FmShape in{1, 160'000, 262'144};  // 40000 × 65536 output tiles
  nn::FilterBankI8 bank({1, 1, 1, 1});
  bank.at(0, 0, 0, 0) = 1;  // one nonzero weight → one command per position
  const driver::ConvPerf perf = model.conv_layer(in, pack::pack_filters(bank));

  const std::int64_t positions = 40'000LL * 65'536LL;
  ASSERT_GT(positions, static_cast<std::int64_t>(INT32_MAX));
  // Lane 0 carries the only channel (1 cmd/position); the three channel-less
  // lanes emit one end-of-position marker each.
  EXPECT_EQ(perf.weight_cmds, 4 * positions);
  EXPECT_EQ(perf.weight_bubbles, 3 * positions);
  EXPECT_EQ(perf.macs_performed, 16 * positions);
  EXPECT_GT(perf.cycles, 0);
}

}  // namespace
}  // namespace tsca
