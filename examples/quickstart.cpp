// Quickstart: run one convolution layer on the accelerator.
//
// Shows the whole public-API flow on a toy layer:
//   1. make an int8 feature map and filter bank,
//   2. pack the filters for zero-skipping,
//   3. compile the layer and run it on the cycle-accurate engine via the
//      host runtime,
//   4. check against the int8 reference and look at the counters.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>
#include <vector>

#include "core/accelerator.hpp"
#include "driver/runtime.hpp"
#include "nn/layers.hpp"
#include "pack/weight_pack.hpp"
#include "util/rng.hpp"

using namespace tsca;

int main() {
  Rng rng(1);

  // A small layer: 8 input channels, 16x16 pixels, 8 filters of 3x3.
  nn::FeatureMapI8 input({8, 16, 16});
  for (std::size_t i = 0; i < input.size(); ++i)
    input.data()[i] = static_cast<std::int8_t>(rng.next_int(-40, 40));

  nn::FilterBankI8 filters({8, 8, 3, 3});
  for (std::size_t i = 0; i < filters.size(); ++i)
    if (rng.next_double() < 0.4)  // 60 % of weights pruned away
      filters.data()[i] = static_cast<std::int8_t>(rng.next_int(-20, 20));
  const std::vector<std::int32_t> bias(8, 32);
  const nn::Requant requant{.shift = 6, .relu = true};

  // Offline packing: non-zero weights + intra-tile offsets (paper §III-B).
  const pack::PackedFilters packed = pack::pack_filters(filters);
  std::printf("packed %lld non-zero weights of %zu (density %.0f%%)\n",
              static_cast<long long>(packed.total_nonzeros()), filters.size(),
              100.0 * static_cast<double>(packed.total_nonzeros()) /
                  static_cast<double>(filters.size()));

  // The 256-MAC/cycle accelerator (Fig. 3), cycle-accurate execution.
  core::Accelerator accelerator(core::ArchConfig::k256_opt());
  sim::Dram dram(64u << 20);
  sim::DmaEngine dma(dram);
  driver::Runtime runtime(accelerator, dram, dma, {.mode = driver::ExecMode::kCycle});

  // Compile once (weight streams + stripe plan), then execute one image as a
  // batch of one: the map is replaced by the layer's output in place.
  const driver::ConvProgram conv = driver::compile_conv(
      accelerator.config(), input.shape(), packed, bias, requant);
  driver::LayerRun run;
  std::vector<pack::TiledFm> fms{pack::to_tiled(input)};
  runtime.run_conv_batch(fms, conv, run);
  const nn::FeatureMapI8 output = pack::from_tiled(fms.front());

  // The accelerator is bit-exact with the int8 reference.
  const nn::FeatureMapI8 expected =
      nn::conv2d_i8(input, filters, bias, /*stride=*/1, requant);
  std::printf("bit-exact vs reference: %s\n",
              output == expected ? "yes" : "NO (bug!)");

  std::printf("cycles: %llu  (ideal dense: %lld)\n",
              static_cast<unsigned long long>(run.cycles),
              static_cast<long long>(run.macs /
                                     accelerator.config().macs_per_cycle()));
  std::printf("MACs performed: %lld of %lld dense (zero-skipping)\n",
              static_cast<long long>(run.counters.macs_performed),
              static_cast<long long>(run.macs));
  std::printf("weight commands: %lld (%lld bubble slots)\n",
              static_cast<long long>(run.counters.weight_cmds),
              static_cast<long long>(run.counters.weight_bubbles));
  std::printf("SRAM traffic: %lld IFM tile reads, %lld OFM tile writes\n",
              static_cast<long long>(run.counters.ifm_tile_reads),
              static_cast<long long>(run.counters.ofm_tile_writes));
  std::printf("output[0] corner: %d %d / %d %d\n", output.at(0, 0, 0),
              output.at(0, 0, 1), output.at(0, 1, 0), output.at(0, 1, 1));
  return output == expected ? 0 : 1;
}
