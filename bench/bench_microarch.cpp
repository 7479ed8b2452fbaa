// Microarchitecture benchmarks (google-benchmark).
//
// Measures the building blocks of the library itself: FIFO throughput in
// both execution domains, the cycle engine's simulation rate, the datapath
// primitives, the zero-skip packer and the pool micro-op generator.  These
// back the §IV-A discussion (streaming kernels at II=1) with host-side
// numbers for the simulator.
#include <benchmark/benchmark.h>
#include <vector>

#include "core/accelerator.hpp"
#include "core/datapath.hpp"
#include "core/poolgen.hpp"
#include "driver/runtime.hpp"
#include "hls/system.hpp"
#include "pack/weight_pack.hpp"
#include "util/rng.hpp"

using namespace tsca;

namespace {

struct Item {
  int value = 0;
  bool last = false;
};

hls::Kernel producer(hls::Domain& d, hls::Fifo<Item>& out, int n) {
  for (int i = 0; i < n; ++i) {
    co_await out.push({i, i == n - 1});
    co_await hls::clk(d);
  }
}

hls::Kernel consumer(hls::Domain& d, hls::Fifo<Item>& in, std::int64_t& sum) {
  for (;;) {
    Item item = co_await in.pop();
    sum += item.value;
    co_await hls::clk(d);
    if (item.last) break;
  }
}

void BM_FifoPipeline(benchmark::State& state, hls::Mode mode) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    hls::System sys(mode);
    auto& q = sys.make_fifo<Item>("q", 16);
    std::int64_t sum = 0;
    sys.spawn("producer", producer(sys.domain(), q, n));
    sys.spawn("consumer", consumer(sys.domain(), q, sum));
    sys.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_CycleEngineConvLayer(benchmark::State& state) {
  // Simulation rate of the full 25-kernel accelerator on a mid-size layer.
  Rng rng(1);
  const nn::FmShape in{16, 18, 18};
  nn::FeatureMapI8 input(in);
  for (std::size_t i = 0; i < input.size(); ++i)
    input.data()[i] = static_cast<std::int8_t>(rng.next_int(-30, 30));
  nn::FilterBankI8 filters({16, 16, 3, 3});
  for (std::size_t i = 0; i < filters.size(); ++i)
    if (rng.next_double() < 0.4)
      filters.data()[i] = static_cast<std::int8_t>(rng.next_int(1, 20));
  core::ArchConfig cfg = core::ArchConfig::k256_opt();
  cfg.bank_words = 8192;
  const driver::ConvProgram conv =
      driver::compile_conv(cfg, in, pack::pack_filters(filters),
                           std::vector<std::int32_t>(16, 0),
                           nn::Requant{.shift = 6, .relu = true});

  std::uint64_t cycles = 0;
  for (auto _ : state) {
    core::Accelerator acc(cfg);
    sim::Dram dram(16u << 20);
    sim::DmaEngine dma(dram);
    driver::Runtime runtime(acc, dram, dma, {.mode = driver::ExecMode::kCycle});
    driver::LayerRun run;
    std::vector<pack::TiledFm> fms{pack::to_tiled(input)};
    runtime.run_conv_batch(fms, conv, run);
    benchmark::DoNotOptimize(fms);
    cycles += run.cycles;
  }
  state.counters["sim_cycles/s"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
}

void BM_SteerMultiply(benchmark::State& state) {
  Rng rng(2);
  core::Window window;
  for (auto& v : window.v) v = static_cast<std::int8_t>(rng.next_int(-50, 50));
  int offset = 0;
  for (auto _ : state) {
    auto products = core::steer_multiply(window, 13, offset);
    benchmark::DoNotOptimize(products);
    offset = (offset + 1) % pack::kTileSize;
  }
  state.SetItemsProcessed(state.iterations() * pack::kTileSize);
}

void BM_PackFilters(benchmark::State& state) {
  Rng rng(3);
  nn::FilterBankI8 bank({64, 64, 3, 3});
  for (std::size_t i = 0; i < bank.size(); ++i)
    if (rng.next_double() < 0.35)
      bank.data()[i] = static_cast<std::int8_t>(rng.next_int(-40, 40));
  for (auto _ : state) {
    auto packed = pack::pack_filters(bank);
    benchmark::DoNotOptimize(packed);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(bank.size()));
}

void BM_PoolMicroOps(benchmark::State& state) {
  core::PadPoolInstr instr;
  instr.ifm_tiles_x = instr.ifm_tiles_y = 8;
  instr.ifm_h = instr.ifm_w = 32;
  instr.ofm_tiles_x = instr.ofm_tiles_y = 4;
  instr.ofm_h = instr.ofm_w = 16;
  instr.channels = 1;
  instr.win = 2;
  instr.stride = 2;
  for (auto _ : state) {
    for (int oty = 0; oty < instr.ofm_tiles_y; ++oty)
      for (int otx = 0; otx < instr.ofm_tiles_x; ++otx) {
        auto steps = core::make_pool_steps(instr, oty, otx);
        benchmark::DoNotOptimize(steps);
      }
  }
}

}  // namespace

BENCHMARK_CAPTURE(BM_FifoPipeline, thread, hls::Mode::kThread)->Arg(10'000);
BENCHMARK_CAPTURE(BM_FifoPipeline, cycle, hls::Mode::kCycle)->Arg(10'000);
BENCHMARK(BM_CycleEngineConvLayer)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SteerMultiply);
BENCHMARK(BM_PackFilters);
BENCHMARK(BM_PoolMicroOps);
