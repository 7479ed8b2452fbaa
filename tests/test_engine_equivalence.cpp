// Randomized software≈hardware equivalence sweep.
//
// The paper's methodology rests on the multi-threaded software behaving like
// the synthesized hardware.  Here randomized layer stacks (pad/conv/pool in
// random geometries and sparsities) run under the cycle engine, the thread
// engine, and the functional fast path, and all three must agree bit-exactly
// with each other and with the int8 reference — a property sweep on top of
// the targeted cases in test_accelerator.cpp.
//
// The fast path additionally reports PerfModel *predictions* instead of
// measured statistics; the sweep pins the work counters (MACs, weight
// commands/bubbles, pool ops, instruction counts) to the cycle engine's
// measurements exactly, and the drift test bounds how far predicted cycle
// counts may wander from simulated ones.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "core/accelerator.hpp"
#include "core/simd.hpp"
#include "driver/program.hpp"
#include "driver/runtime.hpp"
#include "nn/network.hpp"
#include "quant/quantize.hpp"
#include "util/rng.hpp"
#include "image_run.hpp"

namespace tsca {
namespace {

struct RandomStack {
  nn::Network net;
  quant::QuantizedModel model;
  nn::FeatureMapI8 input;
};

RandomStack make_stack(std::uint64_t seed) {
  Rng rng(seed);
  const int c = rng.next_int(1, 10);
  const int h = rng.next_int(8, 20);
  const int w = rng.next_int(8, 20);
  nn::Network net({c, h, w}, "rand");
  nn::FmShape shape{c, h, w};
  const int depth = rng.next_int(2, 5);
  for (int layer = 0; layer < depth; ++layer) {
    const int kind = rng.next_int(0, 2);
    if (kind == 0 && shape.h >= 5 && shape.w >= 5) {
      const int pad = rng.next_int(0, 2);
      const int kernel = 1 + 2 * rng.next_int(0, 1);  // 1 or 3
      if (pad > 0) {
        net.add_pad(nn::Padding::uniform(pad));
        shape.h += 2 * pad;
        shape.w += 2 * pad;
      }
      const int oc = rng.next_int(1, 12);
      net.add_conv({.out_c = oc,
                    .kernel = kernel,
                    .stride = 1,
                    .relu = rng.next_bool()});
      shape = {oc, shape.h - kernel + 1, shape.w - kernel + 1};
    } else if (kind == 1 && shape.h >= 6 && shape.w >= 6) {
      const int size = rng.next_int(2, 3);
      const int stride = rng.next_int(1, size);
      net.add_maxpool({.size = size, .stride = stride});
      shape = {shape.c, (shape.h - size) / stride + 1,
               (shape.w - size) / stride + 1};
    } else {
      net.add_pad(nn::Padding{rng.next_int(0, 2), rng.next_int(0, 2),
                              rng.next_int(0, 2), rng.next_int(0, 2)});
      const auto inferred = net.infer_shapes().back().fm;
      shape = inferred;
    }
  }

  nn::WeightsF weights = nn::init_random_weights(net, rng);
  // Random sparsification.
  for (auto& bank : weights.conv)
    for (std::size_t i = 0; i < bank.size(); ++i)
      if (rng.next_double() < 0.5) bank.data()[i] = 0.0f;

  nn::FeatureMapF image(net.input_shape());
  for (std::size_t i = 0; i < image.size(); ++i)
    image.data()[i] = static_cast<float>(rng.next_gaussian() * 0.5);
  quant::QuantizedModel model = quant::quantize_network(net, weights, {image});
  nn::FeatureMapI8 input = quant::quantize_fm(image, model.input_exp);
  return {std::move(net), std::move(model), std::move(input)};
}

ImageRun run_stack(const RandomStack& stack, driver::ExecMode mode) {
  core::ArchConfig cfg = core::ArchConfig::k256_opt();
  cfg.bank_words = 2048;  // small: stripes on bigger stacks
  core::Accelerator acc(cfg);
  sim::Dram dram(32u << 20);
  sim::DmaEngine dma(dram);
  driver::Runtime runtime(acc, dram, dma,
                          {.mode = mode, .keep_activations = true});
  return run_image(runtime,
                   driver::NetworkProgram::compile(stack.net, stack.model, cfg),
                   stack.input);
}

class EngineEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(EngineEquivalence, RandomStackAgreesAcrossEnginesAndReference) {
  const RandomStack stack =
      make_stack(0xE0E0 + static_cast<std::uint64_t>(GetParam()) * 7919);

  const std::vector<nn::ActivationI8> ref =
      nn::forward_i8_all(stack.net, stack.model.weights, stack.input);

  const ImageRun cycle = run_stack(stack, driver::ExecMode::kCycle);
  const ImageRun thread = run_stack(stack, driver::ExecMode::kThread);
  const ImageRun fast = run_stack(stack, driver::ExecMode::kFast);

  ASSERT_EQ(cycle.activations.size(), thread.activations.size());
  ASSERT_EQ(cycle.activations.size(), fast.activations.size());
  for (std::size_t i = 0; i < cycle.activations.size(); ++i) {
    EXPECT_EQ(cycle.activations[i], thread.activations[i])
        << "thread engine divergence after layer " << i;
    EXPECT_EQ(cycle.activations[i], fast.activations[i])
        << "fast path divergence after layer " << i;
    EXPECT_EQ(cycle.activations[i], ref[i].fm)
        << "reference mismatch after layer " << stack.net.layers()[i].name;
  }
  EXPECT_EQ(cycle.final_fm, ref.back().fm);
  EXPECT_EQ(fast.final_fm, cycle.final_fm);

  // The fast path reports PerfModel predictions: cycles are flagged, and the
  // predicted work counters must equal the cycle engine's measurements —
  // the performance model counts the same zero-skip schedule the hardware
  // executes.  (DMA/bank-traffic counters stay zero in fast mode: no
  // simulation ran, so none are claimed.)
  ASSERT_EQ(cycle.layers.size(), fast.layers.size());
  for (std::size_t i = 0; i < cycle.layers.size(); ++i) {
    const driver::LayerRun& c = cycle.layers[i];
    const driver::LayerRun& f = fast.layers[i];
    if (!c.on_accelerator) {
      EXPECT_FALSE(f.cycles_predicted) << c.name;
      continue;
    }
    EXPECT_FALSE(c.cycles_predicted) << c.name;
    EXPECT_TRUE(f.cycles_predicted) << c.name;
    EXPECT_GT(f.cycles, 0u) << c.name;
    EXPECT_EQ(f.macs, c.macs) << c.name;
    EXPECT_EQ(f.counters.macs_performed, c.counters.macs_performed) << c.name;
    EXPECT_EQ(f.counters.weight_cmds, c.counters.weight_cmds) << c.name;
    EXPECT_EQ(f.counters.weight_bubbles, c.counters.weight_bubbles) << c.name;
    EXPECT_EQ(f.counters.pool_ops, c.counters.pool_ops) << c.name;
    EXPECT_EQ(f.counters.conv_instrs, c.counters.conv_instrs) << c.name;
    EXPECT_EQ(f.counters.pad_instrs, c.counters.pad_instrs) << c.name;
    EXPECT_EQ(f.counters.pool_instrs, c.counters.pool_instrs) << c.name;
    EXPECT_EQ(f.counters.positions, c.counters.positions) << c.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineEquivalence, ::testing::Range(0, 12));

// Restores the entry SIMD backend (the CPUID / TSCA_FORCE_BACKEND choice) no
// matter how a backend-switching test exits.
struct BackendGuard {
  std::string entry{core::simd::backend_name()};
  ~BackendGuard() { core::simd::select_backend(entry.c_str()); }
};

// Every compiled-in backend this host can run — scalar, SSE2, and (when
// supported) AVX2/AVX-512, the AVX-512 one taking the conv_win whole-window
// kernel on 3x3 layers — must reproduce the cycle engine bit-exactly: same
// activations, same predicted work counters, and the same host-side
// FastConvStats as the scalar backend (the conv_win mask-reconstructed skip
// accounting is pinned to the conv_run path's, not merely close to it).
// tier1.sh additionally runs the whole suite under TSCA_FORCE_BACKEND for
// each backend; this in-process matrix keeps the property one `ctest` away.
TEST(EngineEquivalence, EveryBackendMatchesCycleEngineExactly) {
  BackendGuard guard;
  for (const int param : {1, 5, 9}) {
    const RandomStack stack =
        make_stack(0xE0E0 + static_cast<std::uint64_t>(param) * 7919);
    const ImageRun cycle = run_stack(stack, driver::ExecMode::kCycle);

    ASSERT_TRUE(core::simd::select_backend("scalar"));
    const ImageRun scalar = run_stack(stack, driver::ExecMode::kFast);

    for (const core::simd::SimdBackend* be : core::simd::available_backends()) {
      ASSERT_TRUE(core::simd::select_backend(be->name)) << be->name;
      const ImageRun fast = run_stack(stack, driver::ExecMode::kFast);
      SCOPED_TRACE(std::string("backend ") + be->name + " seed " +
                   std::to_string(param));

      ASSERT_EQ(cycle.activations.size(), fast.activations.size());
      for (std::size_t i = 0; i < cycle.activations.size(); ++i)
        EXPECT_EQ(cycle.activations[i], fast.activations[i])
            << "divergence after layer " << i;
      EXPECT_EQ(cycle.final_fm, fast.final_fm);
      EXPECT_EQ(cycle.logits, fast.logits);

      ASSERT_EQ(cycle.layers.size(), fast.layers.size());
      for (std::size_t i = 0; i < cycle.layers.size(); ++i) {
        const driver::LayerRun& c = cycle.layers[i];
        const driver::LayerRun& f = fast.layers[i];
        if (!c.on_accelerator) continue;
        EXPECT_EQ(f.counters.macs_performed, c.counters.macs_performed)
            << c.name;
        EXPECT_EQ(f.counters.weight_cmds, c.counters.weight_cmds) << c.name;
        EXPECT_EQ(f.counters.weight_bubbles, c.counters.weight_bubbles)
            << c.name;
        EXPECT_EQ(f.counters.pool_ops, c.counters.pool_ops) << c.name;
        EXPECT_EQ(f.counters.positions, c.counters.positions) << c.name;
        // Host-side activation-skip accounting must also be backend-exact:
        // the AVX-512 conv_win path reconstructs per-region skip counts from
        // window masks and has to land on the very numbers the conv_run walk
        // counts directly.
        const core::FastConvStats& sf = scalar.layers[i].fast;
        EXPECT_EQ(f.fast.regions, sf.regions) << c.name;
        EXPECT_EQ(f.fast.regions_zero, sf.regions_zero) << c.name;
        EXPECT_EQ(f.fast.mac_tiles, sf.mac_tiles) << c.name;
        EXPECT_EQ(f.fast.mac_tiles_skipped, sf.mac_tiles_skipped) << c.name;
      }
    }
  }
}

// Batch-major execution packs several images' tiles into one SIMD register
// group; per-image results must still be bit-identical to serial runs —
// including a batch larger than Runtime::kFastBatchLanes, so the lane
// remainder path is exercised — on every backend.  The batch loop keeps
// every image's activations too, in the cycle engine and the fast path.
TEST(EngineEquivalence, BatchMajorMatchesSerialPerImage) {
  BackendGuard guard;
  const RandomStack stack = make_stack(0xE0E0 + 4 * 7919);
  core::ArchConfig cfg = core::ArchConfig::k256_opt();
  cfg.bank_words = 2048;
  const driver::NetworkProgram program =
      driver::NetworkProgram::compile(stack.net, stack.model, cfg);

  const int batch = driver::Runtime::kFastBatchLanes + 3;
  Rng rng(0xBA7C);
  std::vector<nn::FeatureMapI8> inputs;
  inputs.push_back(stack.input);
  for (int i = 1; i < batch; ++i) {
    nn::FeatureMapI8 fm(stack.net.input_shape());
    for (std::size_t j = 0; j < fm.size(); ++j)
      fm.data()[j] = static_cast<std::int8_t>(rng.next_int(-64, 64));
    inputs.push_back(std::move(fm));
  }

  const auto check = [&](driver::ExecMode mode) {
    core::Accelerator acc(cfg);
    sim::Dram dram(64u << 20);
    sim::DmaEngine dma(dram);
    driver::Runtime runtime(acc, dram, dma,
                            {.mode = mode, .keep_activations = true});
    std::vector<driver::NetworkRun> serial;
    for (const nn::FeatureMapI8& input : inputs)
      serial.push_back(run_image(runtime, program, input));
    const driver::BatchNetworkRun batched =
        runtime.run_network_batch(program, inputs);

    ASSERT_EQ(batched.requests.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(batched.requests[i].flat_output, serial[i].flat_output)
          << "image " << i;
      EXPECT_EQ(batched.requests[i].logits, serial[i].logits) << "image " << i;
      EXPECT_EQ(batched.requests[i].final_fm, serial[i].final_fm)
          << "image " << i;
      EXPECT_FALSE(serial[i].activations.empty()) << "image " << i;
      EXPECT_EQ(batched.requests[i].activations, serial[i].activations)
          << "image " << i;
    }
  };

  {
    SCOPED_TRACE("cycle engine");
    check(driver::ExecMode::kCycle);
  }
  for (const core::simd::SimdBackend* be : core::simd::available_backends()) {
    ASSERT_TRUE(core::simd::select_backend(be->name)) << be->name;
    SCOPED_TRACE(std::string("backend ") + be->name);
    check(driver::ExecMode::kFast);
  }
}

// Predicted cycle counts are a model, not a replay: the cycle engine resolves
// lane overlap dynamically while PerfModel bounds it per position.  The
// prediction must stay within 10% (or 128 cycles for tiny layers) of the
// simulated count, layer by layer — close enough to rank layers and size
// batches, and a tripwire for either side drifting.
TEST(PerfModelDrift, FastPredictionsTrackCycleEngine) {
  for (const std::uint64_t seed :
       {0x5EEDull, 0xD41F7ull, 0xE0E0ull + 3 * 7919, 0xE0E0ull + 9 * 7919}) {
    const RandomStack stack = make_stack(seed);
    const ImageRun cycle = run_stack(stack, driver::ExecMode::kCycle);
    const ImageRun fast = run_stack(stack, driver::ExecMode::kFast);
    ASSERT_EQ(cycle.layers.size(), fast.layers.size());
    for (std::size_t i = 0; i < cycle.layers.size(); ++i) {
      if (!cycle.layers[i].on_accelerator) continue;
      const auto measured = static_cast<std::int64_t>(cycle.layers[i].cycles);
      const auto predicted = static_cast<std::int64_t>(fast.layers[i].cycles);
      const std::int64_t band =
          std::max<std::int64_t>(128, measured / 10);
      EXPECT_LE(std::abs(predicted - measured), band)
          << "seed " << seed << " layer " << cycle.layers[i].name
          << ": predicted " << predicted << " vs measured " << measured;
    }
  }
}

TEST(EngineEquivalence, SixteenUnoptVariantAlsoAgrees) {
  const RandomStack stack = make_stack(0xABCD);
  const std::vector<nn::ActivationI8> ref =
      nn::forward_i8_all(stack.net, stack.model.weights, stack.input);
  core::ArchConfig cfg = core::ArchConfig::k16_unopt();
  cfg.bank_words = 4096;
  for (const driver::ExecMode mode :
       {driver::ExecMode::kCycle, driver::ExecMode::kFast}) {
    core::Accelerator acc(cfg);
    sim::Dram dram(32u << 20);
    sim::DmaEngine dma(dram);
    driver::Runtime runtime(acc, dram, dma, {.mode = mode});
    const ImageRun run = run_image(
        runtime, driver::NetworkProgram::compile(stack.net, stack.model, cfg),
        stack.input);
    EXPECT_EQ(run.final_fm, ref.back().fm)
        << driver::exec_mode_name(mode) << " mode";
  }
}

}  // namespace
}  // namespace tsca
