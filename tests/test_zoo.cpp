// The network zoo through the equivalence harness.
//
// Each zoo family exercises a lowering the VGG chain never touches:
// residual skips (tensor slots + kEltwiseAdd), depthwise + pointwise convs,
// global pooling, and ternary weight streams.  Every family must be
// bit-exact — cycle == thread == fast == the int8 reference, layer by
// layer — with the fast path's predicted work counters pinned to the cycle
// engine's measurements, on every compiled-in SIMD backend, serial and
// batch-major alike.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/accelerator.hpp"
#include "core/simd.hpp"
#include "driver/program.hpp"
#include "driver/runtime.hpp"
#include "nn/network.hpp"
#include "nn/zoo.hpp"
#include "util/rng.hpp"
#include "image_run.hpp"

namespace tsca {
namespace {

struct ZooCase {
  const char* name;
  zoo::ZooModel (*make)(std::uint64_t seed);
  std::uint64_t seed;
};

const ZooCase kZooCases[] = {
    {"residual_cifar", zoo::make_residual_cifar, 7},
    {"mobile_dw", zoo::make_mobile_depthwise, 11},
    {"ternary_mlp", zoo::make_ternary_mlp, 13},
};

nn::FeatureMapI8 make_input(const nn::FmShape& shape, std::uint64_t seed) {
  Rng rng(seed);
  nn::FeatureMapI8 fm(shape);
  for (std::size_t i = 0; i < fm.size(); ++i)
    fm.data()[i] = static_cast<std::int8_t>(rng.next_int(-64, 64));
  return fm;
}

core::ArchConfig zoo_config() {
  core::ArchConfig cfg = core::ArchConfig::k256_opt();
  cfg.bank_words = 2048;  // small banks: stripes even on 16x16 maps
  return cfg;
}

ImageRun run_zoo(const zoo::ZooModel& m, const nn::FeatureMapI8& input,
                 driver::ExecMode mode) {
  core::Accelerator acc(zoo_config());
  sim::Dram dram(32u << 20);
  sim::DmaEngine dma(dram);
  driver::Runtime runtime(acc, dram, dma,
                          {.mode = mode, .keep_activations = true});
  return run_image(
      runtime, driver::NetworkProgram::compile(m.net, m.model, zoo_config()),
      input);
}

class ZooEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(ZooEquivalence, EnginesAgreeWithReferenceLayerByLayer) {
  const ZooCase& zc = kZooCases[GetParam()];
  SCOPED_TRACE(zc.name);
  const zoo::ZooModel m = zc.make(zc.seed);
  const nn::FeatureMapI8 input = make_input(m.net.input_shape(), 0x500 + zc.seed);

  const std::vector<nn::ActivationI8> ref =
      nn::forward_i8_all(m.net, m.model.weights, input);

  const ImageRun cycle = run_zoo(m, input, driver::ExecMode::kCycle);
  const ImageRun thread = run_zoo(m, input, driver::ExecMode::kThread);
  const ImageRun fast = run_zoo(m, input, driver::ExecMode::kFast);

  ASSERT_EQ(cycle.activations.size(), thread.activations.size());
  ASSERT_EQ(cycle.activations.size(), fast.activations.size());
  for (std::size_t i = 0; i < cycle.activations.size(); ++i) {
    EXPECT_EQ(cycle.activations[i], thread.activations[i])
        << "thread engine divergence after layer " << i;
    EXPECT_EQ(cycle.activations[i], fast.activations[i])
        << "fast path divergence after layer " << i;
    EXPECT_EQ(cycle.activations[i], ref[i].fm)
        << "reference mismatch after layer " << m.net.layers()[i].name;
  }
  EXPECT_EQ(cycle.logits, ref.back().flat);
  EXPECT_EQ(fast.logits, cycle.logits);
  EXPECT_EQ(thread.logits, cycle.logits);

  // Exact work counters: the fast path predicts the very schedule the cycle
  // engine executed — including depthwise banks (off-diagonal taps are
  // zero-skipped, not free) and global pools (ordinary kPadPool machinery).
  ASSERT_EQ(cycle.layers.size(), fast.layers.size());
  for (std::size_t i = 0; i < cycle.layers.size(); ++i) {
    const driver::LayerRun& c = cycle.layers[i];
    const driver::LayerRun& f = fast.layers[i];
    EXPECT_EQ(c.on_accelerator, f.on_accelerator) << c.name;
    if (!c.on_accelerator) continue;
    EXPECT_EQ(f.macs, c.macs) << c.name;
    EXPECT_EQ(f.counters.macs_performed, c.counters.macs_performed) << c.name;
    EXPECT_EQ(f.counters.weight_cmds, c.counters.weight_cmds) << c.name;
    EXPECT_EQ(f.counters.weight_bubbles, c.counters.weight_bubbles) << c.name;
    EXPECT_EQ(f.counters.pool_ops, c.counters.pool_ops) << c.name;
    EXPECT_EQ(f.counters.positions, c.counters.positions) << c.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Families, ZooEquivalence, ::testing::Range(0, 3));

// Restores the entry SIMD backend no matter how a backend-switching test
// exits (same pattern as test_engine_equivalence.cpp).
struct BackendGuard {
  std::string entry{core::simd::backend_name()};
  ~BackendGuard() { core::simd::select_backend(entry.c_str()); }
};

TEST(ZooEquivalence, EveryBackendMatchesCycleEngine) {
  BackendGuard guard;
  for (const ZooCase& zc : kZooCases) {
    SCOPED_TRACE(zc.name);
    const zoo::ZooModel m = zc.make(zc.seed);
    const nn::FeatureMapI8 input =
        make_input(m.net.input_shape(), 0x501 + zc.seed);
    const ImageRun cycle = run_zoo(m, input, driver::ExecMode::kCycle);
    for (const core::simd::SimdBackend* be : core::simd::available_backends()) {
      ASSERT_TRUE(core::simd::select_backend(be->name)) << be->name;
      SCOPED_TRACE(std::string("backend ") + be->name);
      const ImageRun fast = run_zoo(m, input, driver::ExecMode::kFast);
      ASSERT_EQ(cycle.activations.size(), fast.activations.size());
      for (std::size_t i = 0; i < cycle.activations.size(); ++i)
        EXPECT_EQ(cycle.activations[i], fast.activations[i])
            << "divergence after layer " << i;
      EXPECT_EQ(cycle.logits, fast.logits);
    }
  }
}

// Batch-major execution threads the per-image tensor slots through the
// residual steps; per-image results, activations included, must stay
// identical to batch-of-one runs — in the cycle engine and in the fast path
// on every backend, over more images than one fast-path lane group holds.
TEST(ZooEquivalence, BatchMatchesSerialPerImage) {
  BackendGuard guard;
  for (const ZooCase& zc : kZooCases) {
    SCOPED_TRACE(zc.name);
    const zoo::ZooModel m = zc.make(zc.seed);
    const driver::NetworkProgram program =
        driver::NetworkProgram::compile(m.net, m.model, zoo_config());

    std::vector<nn::FeatureMapI8> inputs;
    for (int i = 0; i < driver::Runtime::kFastBatchLanes + 3; ++i)
      inputs.push_back(
          make_input(m.net.input_shape(), 0x777 + zc.seed * 31 + i));

    const auto check = [&](driver::ExecMode mode) {
      core::Accelerator acc(zoo_config());
      sim::Dram dram(32u << 20);
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
        EXPECT_EQ(batched.requests[i].logits, serial[i].logits)
            << "image " << i;
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
}

// The batch cycle engine must agree with the batch fast path on zoo nets
// too (slots per image under both engines).
TEST(ZooEquivalence, BatchCycleAgreesWithBatchFast) {
  const zoo::ZooModel m = zoo::make_residual_cifar();
  const driver::NetworkProgram program =
      driver::NetworkProgram::compile(m.net, m.model, zoo_config());
  std::vector<nn::FeatureMapI8> inputs;
  for (int i = 0; i < 3; ++i)
    inputs.push_back(make_input(m.net.input_shape(), 0x900 + i));

  driver::BatchNetworkRun runs[2];
  const driver::ExecMode modes[2] = {driver::ExecMode::kCycle,
                                     driver::ExecMode::kFast};
  for (int k = 0; k < 2; ++k) {
    core::Accelerator acc(zoo_config());
    sim::Dram dram(32u << 20);
    sim::DmaEngine dma(dram);
    driver::Runtime runtime(acc, dram, dma, {.mode = modes[k]});
    runs[k] = runtime.run_network_batch(program, inputs);
  }
  ASSERT_EQ(runs[0].requests.size(), runs[1].requests.size());
  for (std::size_t i = 0; i < runs[0].requests.size(); ++i)
    EXPECT_EQ(runs[0].requests[i].logits, runs[1].requests[i].logits)
        << "image " << i;
}

// Zoo builders are deterministic in the seed: the same seed reproduces the
// same quantized weights (the registry's dedup tests depend on this).
TEST(ZooEquivalence, BuildersAreDeterministic) {
  const zoo::ZooModel a = zoo::make_mobile_depthwise(42);
  const zoo::ZooModel b = zoo::make_mobile_depthwise(42);
  ASSERT_EQ(a.model.weights.conv.size(), b.model.weights.conv.size());
  for (std::size_t i = 0; i < a.model.weights.conv.size(); ++i)
    EXPECT_EQ(a.model.weights.conv[i], b.model.weights.conv[i]) << i;
  const zoo::ZooModel c = zoo::make_mobile_depthwise(43);
  bool any_differs = false;
  for (std::size_t i = 0; i < a.model.weights.conv.size(); ++i)
    if (!(a.model.weights.conv[i] == c.model.weights.conv[i]))
      any_differs = true;
  EXPECT_TRUE(any_differs) << "different seeds produced identical weights";
}

}  // namespace
}  // namespace tsca
