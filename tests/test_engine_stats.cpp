// Pins every simulated statistic of fixed cycle-engine batches.
//
// The cycle engine is a model of hardware timing: a change that only makes
// the simulator faster must leave cycles, counters, FIFO and port stalls,
// per-kernel resumes and the banks' contents exactly as they were.  Each
// batch below runs straight through Accelerator::run_batch with resume
// tracking on, and every figure is compared against values recorded from
// the engine as it was before its hot path was reworked.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/accelerator.hpp"
#include "driver/compiler.hpp"
#include "pack/weight_pack.hpp"
#include "util/rng.hpp"

namespace tsca {
namespace {

using Stats = std::map<std::string, std::int64_t>;

// FNV-1a over every word of every bank: the batch's outputs (and anything
// else it wrote) in one number.
std::int64_t bank_digest(core::Accelerator& acc) {
  std::uint64_t h = 1469598103934665603ull;
  for (int lane = 0; lane < acc.num_banks(); ++lane) {
    sim::SramBank& bank = acc.bank(lane);
    std::vector<std::uint8_t> bytes(
        static_cast<std::size_t>(bank.size_words()) * sim::kWordBytes);
    bank.store(0, bytes.data(), bytes.size());
    for (const std::uint8_t b : bytes) {
      h ^= b;
      h *= 1099511628211ull;
    }
  }
  return static_cast<std::int64_t>(h);
}

Stats flatten(const core::BatchStats& s, core::Accelerator& acc) {
  const core::CounterSnapshot& c = s.counters;
  Stats out{
      {"cycles", static_cast<std::int64_t>(s.cycles)},
      {"weight_cmds", c.weight_cmds},
      {"weight_bubbles", c.weight_bubbles},
      {"macs_performed", c.macs_performed},
      {"ifm_tile_reads", c.ifm_tile_reads},
      {"weight_word_reads", c.weight_word_reads},
      {"weight_spill_reads", c.weight_spill_reads},
      {"ofm_tile_writes", c.ofm_tile_writes},
      {"pool_ops", c.pool_ops},
      {"conv_instrs", c.conv_instrs},
      {"pad_instrs", c.pad_instrs},
      {"pool_instrs", c.pool_instrs},
      {"positions", c.positions},
      {"fifo_push_stalls", static_cast<std::int64_t>(s.fifo_push_stalls)},
      {"fifo_pop_stalls", static_cast<std::int64_t>(s.fifo_pop_stalls)},
      {"port_stalls", static_cast<std::int64_t>(s.port_stalls)},
      {"bank_digest", bank_digest(acc)},
  };
  for (const auto& k : s.kernel_activity)
    out["resumes." + k.name] = static_cast<std::int64_t>(k.resumes);
  return out;
}

// Compares every pinned figure and prints the whole observed table on a
// mismatch, ready to paste.
void expect_stats(const Stats& actual, const Stats& expected) {
  EXPECT_EQ(actual.size(), expected.size());
  bool same = actual.size() == expected.size();
  for (const auto& [name, value] : expected) {
    const auto it = actual.find(name);
    if (it == actual.end()) {
      ADD_FAILURE() << "missing statistic " << name;
      same = false;
      continue;
    }
    EXPECT_EQ(it->second, value) << name;
    same = same && it->second == value;
  }
  if (!same) {
    std::string table;
    for (const auto& [name, value] : actual)
      table += "      {\"" + name + "\", " + std::to_string(value) + "},\n";
    ADD_FAILURE() << "observed statistics:\n" << table;
  }
}

core::BatchStats run_tracked(core::Accelerator& acc,
                             const std::vector<core::Instruction>& instrs) {
  hls::SystemOptions options = core::Accelerator::default_options();
  options.track_utilization = true;
  return acc.run_batch(instrs, hls::Mode::kCycle, options);
}

// Random feature-map tiles in `channels` channels of a tiles_y × tiles_x
// grid at `base`, laid out as the runtime stages them (channel c in bank
// c % lanes, slot c / lanes).
void fill_ifm(core::Accelerator& acc, Rng& rng, int base, int channels,
              int tiles_y, int tiles_x, int lo, int hi) {
  const int lanes = acc.config().lanes;
  for (int c = 0; c < channels; ++c)
    for (int t = 0; t < tiles_y * tiles_x; ++t) {
      pack::Tile tile;
      for (auto& v : tile.v) v = static_cast<std::int8_t>(rng.next_int(lo, hi));
      acc.bank(c % lanes).write_tile(base + (c / lanes) * tiles_y * tiles_x + t,
                                     tile);
    }
}

nn::FilterBankI8 random_filters(nn::FilterShape shape, double density,
                                Rng& rng) {
  nn::FilterBankI8 bank(shape);
  for (std::size_t i = 0; i < bank.size(); ++i)
    if (rng.next_double() < density) {
      int w = 0;
      while (w == 0) w = rng.next_int(-12, 12);
      bank.data()[i] = static_cast<std::int8_t>(w);
    }
  return bank;
}

// One CONV instruction per filter group over an unstriped input.
std::vector<core::Instruction> conv_batch(core::Accelerator& acc, Rng& rng,
                                          nn::FmShape in, int oc,
                                          double density) {
  const core::ArchConfig& cfg = acc.config();
  const driver::WeightImage wimg(
      pack::pack_filters(random_filters({oc, in.c, 3, 3}, density, rng)),
      cfg.lanes, cfg.group);
  const driver::ConvPlan plan = driver::plan_conv(cfg, in, oc, 3, wimg);
  EXPECT_EQ(plan.stripes.size(), 1u);
  fill_ifm(acc, rng, plan.ifm_base, in.c, pack::tiles_for(in.h),
           pack::tiles_for(in.w), -25, 25);
  std::vector<core::Instruction> instrs;
  int base = plan.weight_base;
  for (int g = 0; g < wimg.groups(); ++g) {
    for (int lane = 0; lane < cfg.lanes; ++lane)
      acc.bank(lane).load(base, wimg.bytes(g, lane).data(),
                          wimg.bytes(g, lane).size());
    std::vector<std::int32_t> bias(static_cast<std::size_t>(oc));
    for (auto& b : bias) b = rng.next_int(-300, 300);
    instrs.push_back(core::Instruction::make_conv(driver::make_conv_instr(
        plan, plan.stripes[0], g, base, wimg, bias, nn::Requant{.shift = 6},
        cfg.group)));
    base += wimg.aligned_words(g);
  }
  return instrs;
}

core::PadPoolInstr pad_pool_instr(int channels, int ifm_h, int ifm_w,
                                  int ofm_h, int ofm_w, int win, int stride,
                                  int offset, int ofm_base) {
  core::PadPoolInstr p;
  p.ifm_base = 0;
  p.ifm_h = ifm_h;
  p.ifm_w = ifm_w;
  p.ifm_tiles_y = pack::tiles_for(ifm_h);
  p.ifm_tiles_x = pack::tiles_for(ifm_w);
  p.channels = channels;
  p.ofm_base = ofm_base;
  p.ofm_h = ofm_h;
  p.ofm_w = ofm_w;
  p.ofm_tiles_y = pack::tiles_for(ofm_h);
  p.ofm_tiles_x = pack::tiles_for(ofm_w);
  p.win = win;
  p.stride = stride;
  p.offset_y = offset;
  p.offset_x = offset;
  return p;
}

// Three filter groups (the last one half full) on four lanes with the
// position barrier, and a 16-word weight scratchpad that every group's
// stream overflows, so every position re-fetches the spilled words through
// the read port.
TEST(EngineStatsPin, ConvGroupsWithScratchpadSpill) {
  core::ArchConfig cfg = core::ArchConfig::k256_opt();
  cfg.bank_words = 4096;
  cfg.weight_scratch_words = 16;
  ASSERT_TRUE(cfg.position_barrier);
  core::Accelerator acc(cfg);
  Rng rng(2901);
  const std::vector<core::Instruction> instrs =
      conv_batch(acc, rng, {24, 14, 14}, 10, 0.6);
  ASSERT_EQ(instrs.size(), 3u);
  const core::BatchStats stats = run_tracked(acc, instrs);
  ASSERT_GT(stats.counters.weight_spill_reads, 0);
  expect_stats(flatten(stats, acc), Stats{
      {"bank_digest", 4330545762275194928},
      {"conv_instrs", 3},
      {"cycles", 1182},
      {"fifo_pop_stalls", 9190},
      {"fifo_push_stalls", 799},
      {"ifm_tile_reads", 2592},
      {"macs_performed", 189648},
      {"ofm_tile_writes", 90},
      {"pad_instrs", 0},
      {"pool_instrs", 0},
      {"pool_ops", 0},
      {"port_stalls", 0},
      {"positions", 27},
      {"resumes.accum0", 1176},
      {"resumes.accum1", 1175},
      {"resumes.accum2", 1174},
      {"resumes.accum3", 1173},
      {"resumes.controller", 53},
      {"resumes.conv0", 1142},
      {"resumes.conv1", 1133},
      {"resumes.conv2", 1081},
      {"resumes.conv3", 1091},
      {"resumes.fetch0", 889},
      {"resumes.fetch1", 802},
      {"resumes.fetch2", 794},
      {"resumes.fetch3", 808},
      {"resumes.inject0", 1139},
      {"resumes.inject1", 1131},
      {"resumes.inject2", 1080},
      {"resumes.inject3", 1089},
      {"resumes.poolpad0", 2},
      {"resumes.poolpad1", 2},
      {"resumes.poolpad2", 2},
      {"resumes.poolpad3", 2},
      {"resumes.write0", 56},
      {"resumes.write1", 56},
      {"resumes.write2", 56},
      {"resumes.write3", 56},
      {"weight_bubbles", 2925},
      {"weight_cmds", 4383},
      {"weight_spill_reads", 153},
      {"weight_word_reads", 320},
  });
}

// A first-layer shape: three input channels on four lanes, so the last lane
// owns none and sends end-of-position markers only; empty tile groups are
// skipped (the zero-skip ablation).
TEST(EngineStatsPin, SparseConvWithIdleLaneAndGroupSkip) {
  core::ArchConfig cfg = core::ArchConfig::k256_opt();
  cfg.bank_words = 4096;
  cfg.skip_empty_tile_groups = true;
  core::Accelerator acc(cfg);
  Rng rng(2902);
  const std::vector<core::Instruction> instrs =
      conv_batch(acc, rng, {3, 18, 18}, 8, 0.15);
  const core::BatchStats stats = run_tracked(acc, instrs);
  expect_stats(flatten(stats, acc), Stats{
      {"bank_digest", -3712992026787825592},
      {"conv_instrs", 2},
      {"cycles", 177},
      {"fifo_pop_stalls", 1746},
      {"fifo_push_stalls", 0},
      {"ifm_tile_reads", 384},
      {"macs_performed", 9728},
      {"ofm_tile_writes", 128},
      {"pad_instrs", 0},
      {"pool_instrs", 0},
      {"pool_ops", 0},
      {"port_stalls", 0},
      {"positions", 32},
      {"resumes.accum0", 171},
      {"resumes.accum1", 170},
      {"resumes.accum2", 169},
      {"resumes.accum3", 168},
      {"resumes.controller", 40},
      {"resumes.conv0", 113},
      {"resumes.conv1", 97},
      {"resumes.conv2", 129},
      {"resumes.conv3", 66},
      {"resumes.fetch0", 167},
      {"resumes.fetch1", 168},
      {"resumes.fetch2", 169},
      {"resumes.fetch3", 69},
      {"resumes.inject0", 113},
      {"resumes.inject1", 97},
      {"resumes.inject2", 129},
      {"resumes.inject3", 66},
      {"resumes.poolpad0", 2},
      {"resumes.poolpad1", 2},
      {"resumes.poolpad2", 2},
      {"resumes.poolpad3", 2},
      {"resumes.write0", 66},
      {"resumes.write1", 66},
      {"resumes.write2", 66},
      {"resumes.write3", 66},
      {"weight_bubbles", 480},
      {"weight_cmds", 272},
      {"weight_spill_reads", 0},
      {"weight_word_reads", 9},
  });
}

// PAD by one on six channels (two lanes own two, two own one).
TEST(EngineStatsPin, PadBatch) {
  core::ArchConfig cfg = core::ArchConfig::k256_opt();
  cfg.bank_words = 1024;
  core::Accelerator acc(cfg);
  Rng rng(2903);
  fill_ifm(acc, rng, 0, 6, 3, 3, -120, 120);
  const core::BatchStats stats = run_tracked(
      acc, {core::Instruction::make_pad(
               pad_pool_instr(6, 10, 10, 12, 12, 1, 1, -1, 64))});
  expect_stats(flatten(stats, acc), Stats{
      {"bank_digest", 272057870346258668},
      {"conv_instrs", 0},
      {"cycles", 82},
      {"fifo_pop_stalls", 718},
      {"fifo_push_stalls", 0},
      {"ifm_tile_reads", 150},
      {"macs_performed", 0},
      {"ofm_tile_writes", 54},
      {"pad_instrs", 1},
      {"pool_instrs", 0},
      {"pool_ops", 222},
      {"port_stalls", 0},
      {"positions", 0},
      {"resumes.accum0", 2},
      {"resumes.accum1", 2},
      {"resumes.accum2", 2},
      {"resumes.accum3", 2},
      {"resumes.controller", 23},
      {"resumes.conv0", 2},
      {"resumes.conv1", 2},
      {"resumes.conv2", 2},
      {"resumes.conv3", 2},
      {"resumes.fetch0", 78},
      {"resumes.fetch1", 78},
      {"resumes.fetch2", 41},
      {"resumes.fetch3", 41},
      {"resumes.inject0", 2},
      {"resumes.inject1", 2},
      {"resumes.inject2", 2},
      {"resumes.inject3", 2},
      {"resumes.poolpad0", 77},
      {"resumes.poolpad1", 77},
      {"resumes.poolpad2", 40},
      {"resumes.poolpad3", 40},
      {"resumes.write0", 38},
      {"resumes.write1", 38},
      {"resumes.write2", 20},
      {"resumes.write3", 20},
      {"weight_bubbles", 0},
      {"weight_cmds", 0},
      {"weight_spill_reads", 0},
      {"weight_word_reads", 0},
  });
}

// 3×3 stride-2 max pooling: windows straddle input tiles, so output tiles
// take several combining micro-ops.
TEST(EngineStatsPin, PoolBatch) {
  core::ArchConfig cfg = core::ArchConfig::k256_opt();
  cfg.bank_words = 1024;
  core::Accelerator acc(cfg);
  Rng rng(2904);
  fill_ifm(acc, rng, 0, 6, 4, 4, -120, 120);
  const core::BatchStats stats = run_tracked(
      acc, {core::Instruction::make_pool(
               pad_pool_instr(6, 14, 14, 6, 6, 3, 2, 0, 64))});
  expect_stats(flatten(stats, acc), Stats{
      {"bank_digest", 4571738845118101029},
      {"conv_instrs", 0},
      {"cycles", 70},
      {"fifo_pop_stalls", 670},
      {"fifo_push_stalls", 0},
      {"ifm_tile_reads", 150},
      {"macs_performed", 0},
      {"ofm_tile_writes", 24},
      {"pad_instrs", 0},
      {"pool_instrs", 1},
      {"pool_ops", 186},
      {"port_stalls", 0},
      {"positions", 0},
      {"resumes.accum0", 2},
      {"resumes.accum1", 2},
      {"resumes.accum2", 2},
      {"resumes.accum3", 2},
      {"resumes.controller", 23},
      {"resumes.conv0", 2},
      {"resumes.conv1", 2},
      {"resumes.conv2", 2},
      {"resumes.conv3", 2},
      {"resumes.fetch0", 66},
      {"resumes.fetch1", 66},
      {"resumes.fetch2", 35},
      {"resumes.fetch3", 35},
      {"resumes.inject0", 2},
      {"resumes.inject1", 2},
      {"resumes.inject2", 2},
      {"resumes.inject3", 2},
      {"resumes.poolpad0", 65},
      {"resumes.poolpad1", 65},
      {"resumes.poolpad2", 34},
      {"resumes.poolpad3", 34},
      {"resumes.write0", 18},
      {"resumes.write1", 18},
      {"resumes.write2", 10},
      {"resumes.write3", 10},
      {"weight_bubbles", 0},
      {"weight_cmds", 0},
      {"weight_spill_reads", 0},
      {"weight_word_reads", 0},
  });
}

}  // namespace
}  // namespace tsca
