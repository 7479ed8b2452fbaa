// Single-image shorthands for the tests: each runs one image as a batch of
// one through the runtime's batch entry points (the runtime has no separate
// single-image executor) and unwraps the result.
#pragma once

#include <utility>
#include <vector>

#include "driver/runtime.hpp"

namespace tsca {

// One image's network run: that image's outputs beside the batch-of-one
// per-layer records.
struct ImageRun : driver::NetworkRun {
  std::vector<driver::LayerRun> layers;
};

inline ImageRun run_image(driver::Runtime& runtime,
                          const driver::NetworkProgram& program,
                          const nn::FeatureMapI8& input) {
  const nn::FeatureMapI8* in = &input;
  driver::BatchNetworkRun batch = runtime.run_network_batch(program, &in, 1);
  ImageRun run;
  static_cast<driver::NetworkRun&>(run) = std::move(batch.requests.front());
  run.layers = std::move(batch.layers);
  return run;
}

// One conv layer over one already-padded map (run_conv_batch, batch of one).
inline pack::TiledFm conv_image(driver::Runtime& runtime,
                                const pack::TiledFm& input,
                                const driver::ConvProgram& conv,
                                driver::LayerRun& run) {
  std::vector<pack::TiledFm> fms{input};
  runtime.run_conv_batch(fms, conv, run);
  return std::move(fms.front());
}

// One fused pad+conv over one raw map (run_fused_pad_conv_batch, batch of
// one).
inline pack::TiledFm fused_image(driver::Runtime& runtime,
                                 const pack::TiledFm& input,
                                 const driver::ConvProgram& conv,
                                 const driver::FusedPadConvLayout& layout,
                                 driver::LayerRun& pad_run,
                                 driver::LayerRun& conv_run) {
  std::vector<pack::TiledFm> fms{input};
  runtime.run_fused_pad_conv_batch(fms, conv, layout, pad_run, conv_run);
  return std::move(fms.front());
}

}  // namespace tsca
