// Custom network + batched inference.
//
// Builds a bespoke little CNN with the Network API (nothing VGG about it:
// 5x5 and 1x1 kernels, asymmetric padding, overlapping pooling), quantizes
// it, and runs a batch of images through the accelerator — convolutions via
// the weight-amortized batch path, everything checked against the int8
// reference.  Finishes with a per-kernel utilization profile of the busiest
// layer (cycle engine, track_utilization).
//
// Usage: ./build/examples/custom_network [batch_size]
#include <cstdio>
#include <cstdlib>

#include "core/accelerator.hpp"
#include "driver/runtime.hpp"
#include "quant/quantize.hpp"
#include "util/rng.hpp"

using namespace tsca;

int main(int argc, char** argv) {
  const int batch = argc > 1 ? std::atoi(argv[1]) : 4;
  Rng rng(31337);

  // A deliberately non-VGG topology.
  nn::Network net({3, 40, 40}, "custom");
  net.add_pad(nn::Padding::uniform(2), "pad0")
      .add_conv({.out_c = 12, .kernel = 5, .stride = 1, .relu = true}, "conv5x5")
      .add_maxpool({.size = 3, .stride = 2}, "overlap_pool")
      .add_pad(nn::Padding{1, 0, 1, 0}, "asym_pad")
      .add_conv({.out_c = 24, .kernel = 3, .stride = 1, .relu = true}, "conv3x3")
      .add_conv({.out_c = 8, .kernel = 1, .stride = 1, .relu = false},
                "conv1x1")
      .add_maxpool({.size = 2, .stride = 2}, "pool2")
      .add_flatten()
      .add_fc({.out_dim = 10, .relu = false}, "fc")
      .add_softmax();

  const nn::WeightsF weights = nn::init_random_weights(net, rng);
  nn::FeatureMapF calib(net.input_shape());
  for (std::size_t i = 0; i < calib.size(); ++i)
    calib.data()[i] = static_cast<float>(rng.next_gaussian() * 0.5);
  const quant::QuantizedModel model =
      quant::quantize_network(net, weights, {calib});

  std::vector<nn::FeatureMapI8> images;
  for (int b = 0; b < batch; ++b) {
    nn::FeatureMapF image(net.input_shape());
    for (std::size_t i = 0; i < image.size(); ++i)
      image.data()[i] = static_cast<float>(rng.next_gaussian() * 0.5);
    images.push_back(quant::quantize_fm(image, model.input_exp));
  }

  core::Accelerator acc(core::ArchConfig::k256_opt());
  sim::Dram dram(128u << 20);
  sim::DmaEngine dma(dram);
  driver::Runtime runtime(acc, dram, dma, {.mode = driver::ExecMode::kCycle});

  // Compile every accelerator layer once up front — packing, weight image,
  // stripe plan — so the batch loop below only stages data and fires
  // instructions.
  const std::vector<nn::LayerShape> shapes = net.infer_shapes();
  std::vector<driver::ConvProgram> conv_programs(net.layers().size());
  std::vector<driver::PoolPlan> pool_plans(net.layers().size());
  for (std::size_t i = 0; i < net.layers().size(); ++i) {
    const nn::LayerSpec& spec = net.layers()[i];
    const nn::FmShape in = i == 0 ? net.input_shape() : shapes[i - 1].fm;
    if (spec.kind == nn::LayerKind::kConv)
      conv_programs[i] = driver::compile_conv(
          acc.config(), in, pack::pack_filters(model.weights.conv[i]),
          model.weights.conv_bias[i], model.weights.conv_requant[i]);
    else if (spec.kind == nn::LayerKind::kPad)
      pool_plans[i] = driver::compile_pool(acc.config(), in, shapes[i].fm,
                                           core::Opcode::kPad, 1, 1,
                                           -spec.pad.top, -spec.pad.left);
    else if (spec.kind == nn::LayerKind::kMaxPool)
      pool_plans[i] = driver::compile_pool(
          acc.config(), in, shapes[i].fm, core::Opcode::kPool,
          spec.pool.size, spec.pool.stride, 0, 0);
  }

  // Layer-major batched execution: pads/pools per image, convs batched.
  std::vector<pack::TiledFm> fms;
  for (const nn::FeatureMapI8& image : images)
    fms.push_back(pack::to_tiled(image));
  std::uint64_t total_cycles = 0;
  bool ok = true;
  std::printf("%-14s %8s %12s\n", "layer", "kind", "cycles(batch)");
  for (std::size_t i = 0; i < net.layers().size(); ++i) {
    const nn::LayerSpec& spec = net.layers()[i];
    if (spec.kind == nn::LayerKind::kFlatten) break;
    driver::LayerRun run;
    if (spec.kind == nn::LayerKind::kConv) {
      runtime.run_conv_batch(fms, conv_programs[i], run);
    } else {
      for (auto& fm : fms) {
        driver::LayerRun sub;
        fm = runtime.run_pad_pool(fm, pool_plans[i], sub);
        run.cycles += sub.cycles;
      }
    }
    total_cycles += run.cycles;
    std::printf("%-14s %8s %12llu\n", spec.name.c_str(),
                nn::layer_kind_name(spec.kind),
                static_cast<unsigned long long>(run.cycles));
  }

  // Verify the batch against the reference network.
  for (int b = 0; b < batch; ++b) {
    const std::vector<nn::ActivationI8> ref = nn::forward_i8_all(
        net, model.weights, images[static_cast<std::size_t>(b)]);
    // Find the last feature-map activation (before flatten).
    const nn::FeatureMapI8* last = nullptr;
    for (const auto& act : ref)
      if (!act.is_flat) last = &act.fm;
    if (last != nullptr &&
        pack::from_tiled(fms[static_cast<std::size_t>(b)]) != *last)
      ok = false;
  }
  const double ms = static_cast<double>(total_cycles) /
                    (acc.config().clock_mhz * 1e3);
  std::printf("\nbatch of %d: %llu cycles = %.2f ms at %.0f MHz "
              "(%.0f images/s); reference check: %s\n",
              batch, static_cast<unsigned long long>(total_cycles), ms,
              acc.config().clock_mhz, batch / (ms / 1e3),
              ok ? "bit-exact" : "MISMATCH");

  // Utilization profile of conv3x3 (the busiest layer).
  std::printf("\nper-kernel utilization, conv3x3, one image:\n");
  {
    // Re-run that layer standalone with tracking on.
    pack::TiledFm fm = pack::to_tiled(images[0]);
    driver::LayerRun run;
    std::size_t conv3 = 0;
    for (std::size_t i = 0; i < net.layers().size(); ++i)
      if (net.layers()[i].name == "conv3x3") conv3 = i;
    // Recreate the layer's input by running the prefix through the reference.
    const std::vector<nn::ActivationI8> ref =
        nn::forward_i8_all(net, model.weights, images[0]);
    const nn::FeatureMapI8& conv_in = ref[conv3 - 1].fm;

    // Reuse the precompiled program's weight image and stripe plan.
    const driver::ConvProgram& cp = conv_programs[conv3];
    const driver::WeightImage& wimg = cp.wimg;
    const driver::ConvPlan& plan = cp.plan;
    const pack::TiledFm tiled_in = pack::to_tiled(conv_in);
    for (int lane = 0; lane < 4; ++lane) {
      const auto bytes = driver::bank_stripe_bytes(
          tiled_in, lane, 4, 0, plan.stripes[0].in_tile_rows);
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
          plan, plan.stripes[0], g, base, wimg, cp.bias, cp.rq, 4)));
      base += wimg.aligned_words(g);
    }
    hls::SystemOptions opts = core::Accelerator::default_options();
    opts.track_utilization = true;
    const core::BatchStats stats =
        acc.run_batch(instrs, hls::Mode::kCycle, opts);
    for (const auto& activity : stats.kernel_activity)
      std::printf("  %-12s %5.1f%%\n", activity.name.c_str(),
                  100.0 * static_cast<double>(activity.resumes) /
                      static_cast<double>(stats.cycles));
  }
  return ok ? 0 : 1;
}
