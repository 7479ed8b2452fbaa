// Perf-model validation: the analytic model must track the cycle-accurate
// engine within a few percent across shapes, sparsities and architectures.
#include <gtest/gtest.h>

#include "core/accelerator.hpp"
#include "driver/perf_model.hpp"
#include "driver/runtime.hpp"
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
  for (std::size_t i = 0; i < bank.size(); ++i)
    if (rng.next_double() < density)
      bank.data()[i] = static_cast<std::int8_t>(
          rng.next_bool() ? rng.next_int(1, 12) : rng.next_int(-12, -1));
  return bank;
}

struct GridCase {
  nn::FmShape in;
  int oc;
  double density;
  int lanes;
  int bank_words;
  int scratch_words;
};

class PerfModelGrid : public ::testing::TestWithParam<GridCase> {};

TEST_P(PerfModelGrid, TracksCycleEngineWithinTolerance) {
  const GridCase& p = GetParam();
  Rng rng(0x5EED ^ static_cast<std::uint64_t>(p.in.c * 131 + p.oc * 17 +
                                              p.lanes));
  core::ArchConfig cfg = p.lanes == 1 ? core::ArchConfig::k16_unopt()
                                      : core::ArchConfig::k256_opt();
  cfg.bank_words = p.bank_words;
  cfg.weight_scratch_words = p.scratch_words;

  const nn::FeatureMapI8 input = random_fm(p.in, rng);
  const nn::FilterBankI8 filters =
      random_filters({p.oc, p.in.c, 3, 3}, p.density, rng);
  const pack::PackedFilters packed = pack::pack_filters(filters);
  const std::vector<std::int32_t> bias(static_cast<std::size_t>(p.oc), 0);

  core::Accelerator acc(cfg);
  sim::Dram dram(16u << 20);
  sim::DmaEngine dma(dram);
  driver::Runtime runtime(acc, dram, dma, {.mode = driver::ExecMode::kCycle});
  driver::LayerRun run;
  conv_image(runtime, pack::to_tiled(input),
             driver::compile_conv(cfg, p.in, packed, bias,
                                  nn::Requant{.shift = 6, .relu = true}),
             run);

  const driver::PerfModel model(cfg);
  const driver::ConvPerf perf = model.conv_layer(p.in, packed);

  const double measured = static_cast<double>(run.cycles);
  const double predicted = static_cast<double>(perf.cycles);
  EXPECT_NEAR(predicted / measured, 1.0, 0.06)
      << "model " << perf.cycles << " vs engine " << run.cycles;
  // Zero-skip accounting must be exact, not approximate.
  EXPECT_EQ(perf.macs_performed, run.counters.macs_performed);
  EXPECT_EQ(perf.weight_cmds, run.counters.weight_cmds);
  EXPECT_EQ(perf.weight_bubbles, run.counters.weight_bubbles);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PerfModelGrid,
    ::testing::Values(
        GridCase{{8, 16, 16}, 8, 1.0, 4, 4096, 64},   // dense
        GridCase{{8, 16, 16}, 8, 0.3, 4, 4096, 64},   // pruned
        GridCase{{16, 12, 12}, 16, 0.5, 4, 4096, 16}, // spill-heavy
        GridCase{{3, 20, 20}, 8, 0.8, 4, 4096, 64},   // ic < lanes
        GridCase{{8, 16, 16}, 8, 0.5, 1, 8192, 64},   // 16-unopt
        GridCase{{12, 14, 14}, 20, 0.4, 4, 512, 32},  // striped + chunked
        GridCase{{8, 16, 16}, 8, 0.05, 4, 4096, 64}), // very sparse
    [](const auto& info) {
      const GridCase& c = info.param;
      return "c" + std::to_string(c.in.c) + "h" + std::to_string(c.in.h) +
             "oc" + std::to_string(c.oc) + "d" +
             std::to_string(static_cast<int>(c.density * 100)) + "l" +
             std::to_string(c.lanes) + "b" + std::to_string(c.bank_words) +
             "s" + std::to_string(c.scratch_words);
    });

TEST(PerfModelPool, TracksCycleEngineForPoolAndPad) {
  Rng rng(99);
  core::ArchConfig cfg = core::ArchConfig::k256_opt();
  cfg.bank_words = 4096;
  const nn::FeatureMapI8 input = random_fm({8, 16, 16}, rng);

  core::Accelerator acc(cfg);
  sim::Dram dram(16u << 20);
  sim::DmaEngine dma(dram);
  driver::Runtime runtime(acc, dram, dma, {.mode = driver::ExecMode::kCycle});
  const driver::PerfModel model(cfg);

  {
    driver::LayerRun run;
    runtime.run_pad_pool(pack::to_tiled(input),
                         driver::compile_pool(cfg, {8, 16, 16}, {8, 8, 8},
                                              core::Opcode::kPool, 2, 2, 0, 0),
                         run);
    const driver::PoolPerf perf =
        model.pool_layer({8, 16, 16}, {8, 8, 8}, core::Opcode::kPool, 2, 2, 0,
                         0);
    EXPECT_NEAR(static_cast<double>(perf.cycles) /
                    static_cast<double>(run.cycles),
                1.0, 0.10)
        << "pool model " << perf.cycles << " vs " << run.cycles;
    EXPECT_EQ(perf.ops, run.counters.pool_ops);
  }
  {
    driver::LayerRun run;
    runtime.run_pad_pool(pack::to_tiled(input),
                         driver::compile_pool(cfg, {8, 16, 16}, {8, 18, 18},
                                              core::Opcode::kPad, 1, 1, -1, -1),
                         run);
    const driver::PoolPerf perf = model.pool_layer(
        {8, 16, 16}, {8, 18, 18}, core::Opcode::kPad, 1, 1, -1, -1);
    EXPECT_NEAR(static_cast<double>(perf.cycles) /
                    static_cast<double>(run.cycles),
                1.0, 0.10)
        << "pad model " << perf.cycles << " vs " << run.cycles;
    EXPECT_EQ(perf.ops, run.counters.pool_ops);
  }
}

}  // namespace
}  // namespace tsca
