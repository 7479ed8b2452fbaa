// ProgramRegistry: multi-model compile cache with content-hash weight dedup
// and a DDR byte budget with LRU eviction — plus the lowering registry's
// extension point (a toy layer kind compiled through ScopedLowering).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/accelerator.hpp"
#include "driver/compiler.hpp"
#include "driver/lowering.hpp"
#include "driver/program.hpp"
#include "driver/program_registry.hpp"
#include "driver/runtime.hpp"
#include "nn/zoo.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "image_run.hpp"

namespace tsca {
namespace {

core::ArchConfig test_config() { return core::ArchConfig::k256_opt(); }

nn::FeatureMapI8 make_input(const nn::FmShape& shape, std::uint64_t seed) {
  Rng rng(seed);
  nn::FeatureMapI8 fm(shape);
  for (std::size_t i = 0; i < fm.size(); ++i)
    fm.data()[i] = static_cast<std::int8_t>(rng.next_int(-64, 64));
  return fm;
}

// The unique weight bytes one compiled program charges to the budget.
std::uint64_t program_bytes(driver::ProgramRegistry& reg,
                            const std::string& id) {
  const driver::ProgramHandle h = reg.acquire(id);
  return h.program().ddr_image().size();
}

TEST(RegistryBasics, AddAcquireAndIntrospect) {
  const zoo::ZooModel m = zoo::make_ternary_mlp();
  driver::ProgramRegistry reg(test_config());
  EXPECT_FALSE(reg.has_model("mlp"));
  reg.add_model("mlp", m.net, m.model);
  EXPECT_TRUE(reg.has_model("mlp"));
  EXPECT_EQ(reg.model_ids(), std::vector<std::string>{"mlp"});
  EXPECT_FALSE(reg.resident("mlp"));  // compilation is deferred

  const driver::ProgramHandle h = reg.acquire("mlp");
  ASSERT_TRUE(h.valid());
  EXPECT_EQ(h.model_id(), "mlp");
  EXPECT_TRUE(reg.resident("mlp"));
  EXPECT_EQ(reg.stats().compiles, 1u);
  EXPECT_EQ(reg.stats().cache_hits, 0u);
  EXPECT_GT(reg.stats().resident_bytes, 0u);

  const driver::ProgramHandle again = reg.acquire("mlp");
  EXPECT_EQ(reg.stats().compiles, 1u);
  EXPECT_EQ(reg.stats().cache_hits, 1u);
  EXPECT_EQ(&h.program(), &again.program());
}

TEST(RegistryBasics, AcquiredProgramRunsCorrectly) {
  const zoo::ZooModel m = zoo::make_residual_cifar();
  driver::ProgramRegistry reg(test_config());
  reg.add_model("res", m.net, m.model);
  const driver::ProgramHandle h = reg.acquire("res");

  const nn::FeatureMapI8 input = make_input(m.net.input_shape(), 0x1234);
  const std::vector<nn::ActivationI8> ref =
      nn::forward_i8_all(m.net, m.model.weights, input);

  core::Accelerator acc(test_config());
  sim::Dram dram(32u << 20);
  sim::DmaEngine dma(dram);
  driver::Runtime runtime(acc, dram, dma, {.mode = driver::ExecMode::kFast});
  const ImageRun run = run_image(runtime, h.program(), input);
  EXPECT_EQ(run.logits, ref.back().flat);
}

TEST(RegistryDedup, SharedWeightImagesChargedOnce) {
  // Two ids over the very same recipe: every weight image content-hashes
  // identically, so the second program's streams are deduped — charged zero
  // new bytes, all of them counted as saved.
  const zoo::ZooModel m = zoo::make_mobile_depthwise();
  driver::ProgramRegistry reg(test_config());
  reg.add_model("a", m.net, m.model);
  reg.add_model("b", m.net, m.model);

  const driver::ProgramHandle ha = reg.acquire("a");
  const std::uint64_t after_first = reg.stats().resident_bytes;
  ASSERT_GT(after_first, 0u);
  EXPECT_EQ(reg.stats().shared_bytes_saved, 0u);

  const driver::ProgramHandle hb = reg.acquire("b");
  EXPECT_EQ(reg.stats().compiles, 2u);  // programs compile per id...
  EXPECT_EQ(reg.stats().resident_bytes, after_first);  // ...bytes do not
  EXPECT_EQ(reg.stats().shared_bytes_saved, after_first);
}

TEST(RegistryDedup, DistinctWeightsChargeSeparately) {
  const zoo::ZooModel a = zoo::make_mobile_depthwise(21);
  const zoo::ZooModel b = zoo::make_mobile_depthwise(22);
  driver::ProgramRegistry reg(test_config());
  reg.add_model("a", a.net, a.model);
  reg.add_model("b", b.net, b.model);
  const driver::ProgramHandle ha = reg.acquire("a");
  const std::uint64_t after_first = reg.stats().resident_bytes;
  const driver::ProgramHandle hb = reg.acquire("b");
  EXPECT_GT(reg.stats().resident_bytes, after_first);
  EXPECT_EQ(reg.stats().shared_bytes_saved, 0u);
}

TEST(RegistryEviction, OverBudgetEvictsLeastRecentlyAcquired) {
  const zoo::ZooModel a = zoo::make_residual_cifar(31);
  const zoo::ZooModel b = zoo::make_residual_cifar(32);
  const zoo::ZooModel c = zoo::make_residual_cifar(33);

  // Learn every program's footprint with an unbudgeted probe (zero-skip
  // weight streams make sizes seed-dependent, not topology-dependent), then
  // budget for any two programs but never all three.
  std::uint64_t ba = 0, bb = 0, bc = 0;
  {
    driver::ProgramRegistry probe(test_config());
    probe.add_model("a", a.net, a.model);
    probe.add_model("b", b.net, b.model);
    probe.add_model("c", c.net, c.model);
    ba = program_bytes(probe, "a");
    bb = program_bytes(probe, "b");
    bc = program_bytes(probe, "c");
  }
  ASSERT_GT(ba, 0u);
  const std::uint64_t budget =
      std::max({ba + bb, ba + bc, bb + bc});

  driver::ProgramRegistry reg(test_config(), {.ddr_budget_bytes = budget});
  reg.add_model("a", a.net, a.model);
  reg.add_model("b", b.net, b.model);
  reg.add_model("c", c.net, c.model);

  (void)reg.acquire("a");
  (void)reg.acquire("b");
  // Touch a again: now b is the least recently acquired.
  (void)reg.acquire("a");
  EXPECT_EQ(reg.stats().evictions, 0u);

  (void)reg.acquire("c");
  EXPECT_EQ(reg.stats().evictions, 1u);
  EXPECT_TRUE(reg.resident("a"));
  EXPECT_FALSE(reg.resident("b"));  // LRU victim
  EXPECT_TRUE(reg.resident("c"));
  EXPECT_LE(reg.stats().resident_bytes, budget);
}

TEST(RegistryEviction, ReacquireRecompilesWithFreshStamp) {
  const zoo::ZooModel a = zoo::make_residual_cifar(41);
  const zoo::ZooModel b = zoo::make_residual_cifar(42);
  std::uint64_t bytes = 0;  // budget holding either program, never both
  {
    driver::ProgramRegistry probe(test_config());
    probe.add_model("a", a.net, a.model);
    probe.add_model("b", b.net, b.model);
    bytes = std::max(program_bytes(probe, "a"), program_bytes(probe, "b"));
  }

  driver::ProgramRegistry reg(test_config(), {.ddr_budget_bytes = bytes});
  reg.add_model("a", a.net, a.model);
  reg.add_model("b", b.net, b.model);

  std::uint64_t first_stamp = 0;
  {
    const driver::ProgramHandle ha = reg.acquire("a");
    first_stamp = ha.program().stamp();
  }
  (void)reg.acquire("b");  // evicts a (idle, unpinned)
  EXPECT_FALSE(reg.resident("a"));
  EXPECT_EQ(reg.stats().evictions, 1u);

  const driver::ProgramHandle ha = reg.acquire("a");
  EXPECT_EQ(reg.stats().compiles, 3u);  // a, b, a again
  // A fresh stamp: worker contexts holding the evicted image restage.
  EXPECT_NE(ha.program().stamp(), first_stamp);
}

TEST(RegistryEviction, PinnedModelsAreNeverEvicted) {
  const zoo::ZooModel a = zoo::make_residual_cifar(51);
  const zoo::ZooModel b = zoo::make_residual_cifar(52);
  std::uint64_t bytes = 0;  // budget holding either program, never both
  {
    driver::ProgramRegistry probe(test_config());
    probe.add_model("a", a.net, a.model);
    probe.add_model("b", b.net, b.model);
    bytes = std::max(program_bytes(probe, "a"), program_bytes(probe, "b"));
  }

  driver::ProgramRegistry reg(test_config(), {.ddr_budget_bytes = bytes});
  reg.add_model("a", a.net, a.model, /*pinned=*/true);
  reg.add_model("b", b.net, b.model);

  (void)reg.acquire("a");  // handle dropped; the pin alone protects it
  (void)reg.acquire("b");  // over budget, but the only candidate is pinned
  EXPECT_TRUE(reg.resident("a"));
  EXPECT_TRUE(reg.resident("b"));
  EXPECT_EQ(reg.stats().evictions, 0u);  // soft overage, not eviction
}

TEST(RegistryEviction, InUseModelsAreNeverEvicted) {
  const zoo::ZooModel a = zoo::make_residual_cifar(61);
  const zoo::ZooModel b = zoo::make_residual_cifar(62);
  std::uint64_t bytes = 0;  // budget holding either program, never both
  {
    driver::ProgramRegistry probe(test_config());
    probe.add_model("a", a.net, a.model);
    probe.add_model("b", b.net, b.model);
    bytes = std::max(program_bytes(probe, "a"), program_bytes(probe, "b"));
  }

  driver::ProgramRegistry reg(test_config(), {.ddr_budget_bytes = bytes});
  reg.add_model("a", a.net, a.model);
  reg.add_model("b", b.net, b.model);

  const driver::ProgramHandle ha = reg.acquire("a");  // held: in use
  (void)reg.acquire("b");
  EXPECT_TRUE(reg.resident("a"));  // a lease blocks eviction
  EXPECT_EQ(reg.stats().evictions, 0u);

  // Once the lease dies the next over-budget acquire may evict it.
  {
    driver::ProgramHandle drop = reg.acquire("a");
    (void)drop;
  }
  (void)reg.acquire("b");  // cache hit: refreshes b, but no headroom needed
  const driver::ProgramHandle hb = reg.acquire("b");
  EXPECT_TRUE(reg.resident("b"));
}

TEST(RegistryErrors, UnknownModelIsTyped) {
  driver::ProgramRegistry reg(test_config());
  try {
    (void)reg.acquire("nope");
    FAIL() << "acquire of an unknown id did not throw";
  } catch (const driver::UnknownModelError& e) {
    EXPECT_EQ(e.model_id(), "nope");
  }
}

TEST(RegistryErrors, SingleProgramOverBudgetIsInfeasible) {
  const zoo::ZooModel m = zoo::make_ternary_mlp();
  driver::ProgramRegistry reg(test_config(), {.ddr_budget_bytes = 16});
  reg.add_model("mlp", m.net, m.model);
  EXPECT_THROW((void)reg.acquire("mlp"), driver::RegistryBudgetError);
}

TEST(RegistryErrors, IdValidationAndDuplicates) {
  const zoo::ZooModel m = zoo::make_ternary_mlp();
  driver::ProgramRegistry reg(test_config());
  EXPECT_THROW(reg.add_model("", m.net, m.model), Error);
  EXPECT_THROW(reg.add_model("has space", m.net, m.model), Error);
  EXPECT_THROW(reg.add_model(std::string(65, 'x'), m.net, m.model), Error);
  reg.add_model("ok_id.v1-a", m.net, m.model);
  EXPECT_THROW(reg.add_model("ok_id.v1-a", m.net, m.model), Error);
}

// The acceptance test for the pluggable compiler: a layer kind the enum has
// never heard of, registered from outside, compiles and runs — and without
// the registration the compiler reports it as unregistered, proving no
// hard-coded kind switch remains in the lowering path.
TEST(RegistryLowering, ToyKindCompilesThroughScopedRegistration) {
  const auto kToyKind = static_cast<nn::LayerKind>(99);
  nn::Network net({4, 8, 8}, "toy_net");
  nn::LayerSpec spec;
  spec.kind = kToyKind;
  spec.name = "toy0";
  net.add_layer(spec);
  const quant::QuantizedModel model;  // the toy layer carries no weights
  const core::ArchConfig cfg = test_config();

  EXPECT_THROW(driver::NetworkProgram::compile(net, model, cfg), ConfigError);

  // Lower the toy kind as an identity 1x1/stride-1 max pool.
  driver::ScopedLowering guard(kToyKind, [](driver::LoweringContext& ctx) {
    driver::NetworkProgram::Step step;
    step.exec = driver::NetworkProgram::Step::Exec::kPadPool;
    step.pool = ctx.add_pool(driver::compile_pool(
        ctx.cfg(), ctx.fm, ctx.fm, core::Opcode::kPool, 1, 1, 0, 0));
    ctx.push_step(step);
  });
  const driver::NetworkProgram program =
      driver::NetworkProgram::compile(net, model, cfg);

  const nn::FeatureMapI8 input = make_input(net.input_shape(), 0x70F);
  for (const driver::ExecMode mode :
       {driver::ExecMode::kCycle, driver::ExecMode::kFast}) {
    core::Accelerator acc(cfg);
    sim::Dram dram(16u << 20);
    sim::DmaEngine dma(dram);
    driver::Runtime runtime(acc, dram, dma, {.mode = mode});
    const ImageRun run = run_image(runtime, program, input);
    EXPECT_EQ(run.final_fm, input) << driver::exec_mode_name(mode);
  }
}

// Registry + zoo end to end: every zoo model acquired through one registry
// produces reference-exact logits.
TEST(RegistryZooIntegration, AllZooModelsServeFromOneRegistry) {
  const zoo::ZooModel res = zoo::make_residual_cifar();
  const zoo::ZooModel mob = zoo::make_mobile_depthwise();
  const zoo::ZooModel mlp = zoo::make_ternary_mlp();
  driver::ProgramRegistry reg(test_config());
  reg.add_model("res", res.net, res.model);
  reg.add_model("mob", mob.net, mob.model);
  reg.add_model("mlp", mlp.net, mlp.model);

  const zoo::ZooModel* models[] = {&res, &mob, &mlp};
  const char* ids[] = {"res", "mob", "mlp"};
  for (int i = 0; i < 3; ++i) {
    SCOPED_TRACE(ids[i]);
    const driver::ProgramHandle h = reg.acquire(ids[i]);
    const nn::FeatureMapI8 input =
        make_input(models[i]->net.input_shape(), 0xAB0 + i);
    const std::vector<nn::ActivationI8> ref = nn::forward_i8_all(
        models[i]->net, models[i]->model.weights, input);
    core::Accelerator acc(test_config());
    sim::Dram dram(32u << 20);
    sim::DmaEngine dma(dram);
    driver::Runtime runtime(acc, dram, dma, {.mode = driver::ExecMode::kFast});
    const ImageRun run = run_image(runtime, h.program(), input);
    EXPECT_EQ(run.logits, ref.back().flat);
  }
}

}  // namespace
}  // namespace tsca
