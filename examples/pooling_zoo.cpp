// Pooling zoo — the Fig. 5 unit's generality claim, exercised.
//
// "With just a few instructions, the padding/max-pooling unit is capable of
// realizing any padding/max-pooling layer (e.g. a variety of max-pooling
// region sizes or strides)."  This example runs a spread of geometries —
// including overlapping windows and windows straddling tile boundaries —
// through the cycle-accurate unit and checks each against the reference,
// reporting the micro-op cost per output tile.
//
// Usage: ./build/examples/pooling_zoo
#include <cstdio>

#include "core/accelerator.hpp"
#include "core/poolgen.hpp"
#include "driver/runtime.hpp"
#include "nn/layers.hpp"
#include "util/rng.hpp"

using namespace tsca;

int main() {
  Rng rng(7);
  nn::FeatureMapI8 input({4, 24, 24});
  for (std::size_t i = 0; i < input.size(); ++i)
    input.data()[i] = static_cast<std::int8_t>(rng.next_int(-60, 60));

  core::Accelerator accelerator(core::ArchConfig::k256_opt());
  sim::Dram dram(32u << 20);
  sim::DmaEngine dma(dram);
  driver::Runtime runtime(accelerator, dram, dma, {.mode = driver::ExecMode::kCycle});

  struct Geometry {
    const char* label;
    int win;
    int stride;
  };
  const Geometry zoo[] = {
      {"VGG pool (2x2 s2)", 2, 2}, {"3x3 s3", 3, 3},
      {"overlapping 3x3 s2", 3, 2}, {"overlapping 3x3 s1", 3, 1},
      {"wide 5x5 s2 (straddles tiles)", 5, 2}, {"6x6 s3", 6, 3},
      {"global-ish 8x8 s8", 8, 8},
  };

  std::printf("%-32s %9s %9s %10s %8s\n", "geometry", "out", "cycles",
              "ops/otile", "exact");
  bool all_ok = true;
  for (const Geometry& g : zoo) {
    const nn::FeatureMapI8 expected =
        nn::maxpool_i8(input, {g.win, g.stride});
    driver::LayerRun run;
    const pack::TiledFm out = runtime.run_pad_pool(
        pack::to_tiled(input),
        driver::compile_pool(accelerator.config(), input.shape(),
                             expected.shape(), core::Opcode::kPool, g.win,
                             g.stride, 0, 0),
        run);
    const bool ok = pack::from_tiled(out) == expected;
    all_ok = all_ok && ok;
    const int otiles = pack::tiles_for(expected.shape().h) *
                       pack::tiles_for(expected.shape().w) *
                       expected.shape().c;
    std::printf("%-32s %4dx%-4d %9llu %10.2f %8s\n", g.label,
                expected.shape().h, expected.shape().w,
                static_cast<unsigned long long>(run.cycles),
                static_cast<double>(run.counters.pool_ops) / otiles,
                ok ? "yes" : "NO");
  }

  // Padding variants, including asymmetric.
  const nn::Padding pads[] = {nn::Padding::uniform(1), nn::Padding::uniform(3),
                              nn::Padding{0, 2, 3, 1}};
  for (const nn::Padding& pad : pads) {
    const nn::FeatureMapI8 expected = nn::pad_i8(input, pad);
    driver::LayerRun run;
    const pack::TiledFm out = runtime.run_pad_pool(
        pack::to_tiled(input),
        driver::compile_pool(accelerator.config(), input.shape(),
                             expected.shape(), core::Opcode::kPad, 1, 1,
                             -pad.top, -pad.left),
        run);
    const bool ok = pack::from_tiled(out) == expected;
    all_ok = all_ok && ok;
    std::printf("pad t%d b%d l%d r%d %20s %9llu %18s\n", pad.top, pad.bottom,
                pad.left, pad.right, "",
                static_cast<unsigned long long>(run.cycles),
                ok ? "yes" : "NO");
  }

  std::printf("\n%s\n", all_ok ? "every geometry bit-exact — the Fig. 5 unit "
                                 "is general as claimed"
                               : "MISMATCH — bug");
  return all_ok ? 0 : 1;
}
