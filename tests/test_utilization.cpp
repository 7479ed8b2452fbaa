// Per-kernel utilization accounting and the FC-as-conv ablation.
#include <gtest/gtest.h>

#include "core/accelerator.hpp"
#include "driver/runtime.hpp"
#include "pack/weight_pack.hpp"
#include "util/rng.hpp"

namespace tsca {
namespace {

TEST(Utilization, ConvKernelsBusyPoolPadIdleDuringConvolution) {
  Rng rng(61);
  nn::FeatureMapI8 input({8, 16, 16});
  for (std::size_t i = 0; i < input.size(); ++i)
    input.data()[i] = static_cast<std::int8_t>(rng.next_int(-30, 30));
  nn::FilterBankI8 filters({8, 8, 3, 3});
  for (std::size_t i = 0; i < filters.size(); ++i)
    filters.data()[i] = static_cast<std::int8_t>(rng.next_int(-9, 9));

  core::ArchConfig cfg = core::ArchConfig::k256_opt();
  cfg.bank_words = 4096;
  core::Accelerator acc(cfg);
  const driver::WeightImage wimg(pack::pack_filters(filters), cfg.lanes,
                                 cfg.group);
  const driver::ConvPlan plan =
      driver::plan_conv(cfg, input.shape(), 8, 3, wimg);
  const pack::TiledFm tiled = pack::to_tiled(input);
  for (int lane = 0; lane < cfg.lanes; ++lane) {
    const auto bytes = driver::bank_stripe_bytes(
        tiled, lane, cfg.lanes, 0, plan.stripes[0].in_tile_rows);
    acc.bank(lane).load(plan.ifm_base, bytes.data(), bytes.size());
    int base = plan.weight_base;
    for (int g = 0; g < wimg.groups(); ++g) {
      acc.bank(lane).load(base, wimg.bytes(g, lane).data(),
                          wimg.bytes(g, lane).size());
      base += wimg.aligned_words(g);
    }
  }
  std::vector<core::Instruction> instrs;
  int base = plan.weight_base;
  for (int g = 0; g < wimg.groups(); ++g) {
    instrs.push_back(core::Instruction::make_conv(driver::make_conv_instr(
        plan, plan.stripes[0], g, base, wimg, {}, nn::Requant{.shift = 6},
        cfg.group)));
    base += wimg.aligned_words(g);
  }
  hls::SystemOptions options = core::Accelerator::default_options();
  options.track_utilization = true;
  const core::BatchStats stats =
      acc.run_batch(instrs, hls::Mode::kCycle, options);

  ASSERT_FALSE(stats.kernel_activity.empty());
  std::map<std::string, double> util;
  for (const auto& activity : stats.kernel_activity)
    util[activity.name] =
        static_cast<double>(activity.resumes) /
        static_cast<double>(stats.cycles);
  // The dense conv keeps inject/conv/accum lanes nearly fully busy.
  EXPECT_GT(util["conv0"], 0.7);
  EXPECT_GT(util["inject0"], 0.7);
  EXPECT_GT(util["accum0"], 0.7);
  // Pool/pad units wake only for their halt token.
  EXPECT_LT(util["poolpad0"], 0.01);
  // Controller dispatches a handful of messages.
  EXPECT_LT(util["controller"], 0.2);
}

TEST(FcAsConv, MatchesHostFcButWastesTheDatapath) {
  Rng rng(62);
  const int in_dim = 64;
  const int out_dim = 16;
  std::vector<std::int8_t> input(in_dim);
  for (auto& v : input) v = static_cast<std::int8_t>(rng.next_int(-40, 40));
  std::vector<std::int8_t> weights(
      static_cast<std::size_t>(in_dim) * out_dim);
  for (auto& w : weights) w = static_cast<std::int8_t>(rng.next_int(-10, 10));
  std::vector<std::int32_t> bias(out_dim, 12);
  const nn::Requant rq{.shift = 7, .relu = false};

  const std::vector<std::int8_t> expected =
      nn::fc_i8(input, weights, bias, out_dim, rq);

  core::ArchConfig cfg = core::ArchConfig::k256_opt();
  cfg.bank_words = 4096;
  core::Accelerator acc(cfg);
  sim::Dram dram(32u << 20);
  sim::DmaEngine dma(dram);
  driver::Runtime runtime(acc, dram, dma, {.mode = driver::ExecMode::kCycle});
  driver::LayerRun run;
  const std::vector<std::int8_t> logits = runtime.run_fc_as_conv(
      input,
      driver::compile_fc_conv(cfg, in_dim, out_dim, weights, bias, rq), run);
  EXPECT_EQ(logits, expected);

  // The ablation's point: utilization is pitiful.  Useful MACs = in*out; the
  // datapath could have done 256/cycle.
  const double useful =
      static_cast<double>(in_dim) * out_dim /
      (static_cast<double>(run.cycles) * cfg.macs_per_cycle());
  EXPECT_LT(useful, 1.0 / 16.0);  // the 1-of-16 tile-value bound
  EXPECT_GT(useful, 0.005);
}

}  // namespace
}  // namespace tsca
