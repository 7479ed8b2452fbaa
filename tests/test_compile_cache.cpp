// Persistent compile cache: key derivation, hit/miss behaviour, corruption
// and version-skew fallback, concurrent writers, registry integration, and
// the property everything else rests on — a cached program is bit-exact
// with a fresh compile, in every execution mode, on every zoo family.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/accelerator.hpp"
#include "driver/compile_cache.hpp"
#include "driver/program.hpp"
#include "driver/program_registry.hpp"
#include "driver/runtime.hpp"
#include "nn/zoo.hpp"
#include "quant/quantize.hpp"
#include "sim/dma.hpp"
#include "sim/dram.hpp"
#include "util/rng.hpp"
#include "image_run.hpp"

namespace tsca {
namespace {

// A fresh cache directory per test, under the test's CWD (the build tree),
// removed on teardown.
class CompileCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::string(".tsca-cache-test-") + info->test_suite_name() + "-" +
           info->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

nn::FeatureMapI8 make_input(const nn::FmShape& shape, std::uint64_t seed) {
  Rng rng(seed);
  nn::FeatureMapI8 fm(shape);
  for (std::size_t i = 0; i < fm.size(); ++i)
    fm.data()[i] = static_cast<std::int8_t>(rng.next_int(-64, 64));
  return fm;
}

core::ArchConfig small_config() {
  core::ArchConfig cfg = core::ArchConfig::k256_opt();
  cfg.bank_words = 2048;  // small banks force striping even on 16x16 maps
  return cfg;
}

ImageRun run_program(const driver::NetworkProgram& program,
                     const nn::FeatureMapI8& input, driver::ExecMode mode) {
  core::Accelerator acc(program.config());
  sim::Dram dram(32u << 20);
  sim::DmaEngine dma(dram);
  driver::Runtime runtime(acc, dram, dma,
                          {.mode = mode, .keep_activations = true});
  return run_image(runtime, program, input);
}

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

// --- key derivation ------------------------------------------------------

TEST_F(CompileCacheTest, KeyIsDeterministicAndInputSensitive) {
  const zoo::ZooModel m = zoo::make_ternary_mlp(13);
  const core::ArchConfig cfg = small_config();

  const std::uint64_t k1 = driver::CompileCache::key(m.net, m.model, cfg);
  const std::uint64_t k2 = driver::CompileCache::key(m.net, m.model, cfg);
  EXPECT_EQ(k1, k2);

  // A different seed means different weights: the key must move.
  const zoo::ZooModel other = zoo::make_ternary_mlp(14);
  EXPECT_NE(k1, driver::CompileCache::key(other.net, other.model, cfg));

  // A different architecture plans differently: the key must move.
  core::ArchConfig cfg2 = cfg;
  cfg2.bank_words *= 2;
  EXPECT_NE(k1, driver::CompileCache::key(m.net, m.model, cfg2));

  // Compile options are part of the recipe too.
  EXPECT_NE(k1, driver::CompileCache::key(m.net, m.model, cfg,
                                          {.fuse_pad_conv = false}));

  // The config *name* is cosmetic — same planning inputs, same key.
  core::ArchConfig renamed = cfg;
  renamed.name = "renamed";
  EXPECT_EQ(k1, driver::CompileCache::key(m.net, m.model, renamed));
}

// --- hit / miss / store --------------------------------------------------

TEST_F(CompileCacheTest, MissThenStoreThenHit) {
  const zoo::ZooModel m = zoo::make_residual_cifar(7);
  const core::ArchConfig cfg = small_config();
  driver::CompileCache cache(dir_);
  const std::uint64_t key = driver::CompileCache::key(m.net, m.model, cfg);

  EXPECT_FALSE(cache.load(key, m.net, cfg).has_value());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);

  const driver::NetworkProgram fresh =
      driver::NetworkProgram::compile(m.net, m.model, cfg);
  ASSERT_TRUE(cache.store(key, fresh));
  EXPECT_EQ(cache.stats().stores, 1u);
  EXPECT_TRUE(std::filesystem::exists(cache.path_for(key)));

  const std::optional<driver::NetworkProgram> cached =
      cache.load(key, m.net, cfg);
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(cache.stats().hits, 1u);

  // The artifact round-trips: identical DDR image, steps, and slots — only
  // the stamp is fresh (so runtimes restage, not reuse a stale residency).
  EXPECT_EQ(cached->ddr_image(), fresh.ddr_image());
  EXPECT_EQ(cached->steps().size(), fresh.steps().size());
  EXPECT_EQ(cached->slot_count(), fresh.slot_count());
  EXPECT_NE(cached->stamp(), fresh.stamp());
}

TEST_F(CompileCacheTest, GetOrCompileStoresOnMissAndLoadsOnHit) {
  const zoo::ZooModel m = zoo::make_mobile_depthwise(11);
  const core::ArchConfig cfg = small_config();
  driver::CompileCache cache(dir_);

  const driver::NetworkProgram first =
      cache.get_or_compile(m.net, m.model, cfg);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().stores, 1u);

  const driver::NetworkProgram second =
      cache.get_or_compile(m.net, m.model, cfg);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(second.ddr_image(), first.ddr_image());
}

// --- the property everything rests on: bit-exact execution ---------------

class CompileCacheZoo : public CompileCacheTest,
                        public ::testing::WithParamInterface<int> {};

TEST_P(CompileCacheZoo, CachedProgramExecutesBitExactly) {
  const ZooCase& zc = kZooCases[GetParam()];
  SCOPED_TRACE(zc.name);
  const zoo::ZooModel m = zc.make(zc.seed);
  const core::ArchConfig cfg = small_config();
  driver::CompileCache cache(dir_);

  const driver::NetworkProgram fresh =
      driver::NetworkProgram::compile(m.net, m.model, cfg);
  const std::uint64_t key = driver::CompileCache::key(m.net, m.model, cfg);
  ASSERT_TRUE(cache.store(key, fresh));
  const std::optional<driver::NetworkProgram> cached =
      cache.load(key, m.net, cfg);
  ASSERT_TRUE(cached.has_value());

  const nn::FeatureMapI8 input = make_input(m.net.input_shape(), 0x900);
  for (const driver::ExecMode mode :
       {driver::ExecMode::kCycle, driver::ExecMode::kFast}) {
    const ImageRun a = run_program(fresh, input, mode);
    const ImageRun b = run_program(*cached, input, mode);
    ASSERT_EQ(a.logits, b.logits);
    ASSERT_EQ(a.activations.size(), b.activations.size());
    for (std::size_t i = 0; i < a.activations.size(); ++i)
      ASSERT_EQ(a.activations[i], b.activations[i]) << "activation " << i;
    ASSERT_EQ(a.layers.size(), b.layers.size());
    for (std::size_t i = 0; i < a.layers.size(); ++i) {
      ASSERT_EQ(a.layers[i].cycles, b.layers[i].cycles) << "layer " << i;
      ASSERT_EQ(a.layers[i].counters, b.layers[i].counters) << "layer " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllZooFamilies, CompileCacheZoo,
                         ::testing::Range(0, 3));

// --- corruption and version skew -----------------------------------------

TEST_F(CompileCacheTest, CorruptFileFallsBackToCompile) {
  const zoo::ZooModel m = zoo::make_ternary_mlp(13);
  const core::ArchConfig cfg = small_config();
  driver::CompileCache cache(dir_);
  const std::uint64_t key = driver::CompileCache::key(m.net, m.model, cfg);

  const driver::NetworkProgram fresh =
      driver::NetworkProgram::compile(m.net, m.model, cfg);
  ASSERT_TRUE(cache.store(key, fresh));

  // Truncate the artifact mid-payload: the bounds-checked parser must treat
  // it as a miss, never crash or return a half-built program.
  const std::string path = cache.path_for(key);
  const auto full_size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full_size / 2);
  EXPECT_FALSE(cache.load(key, m.net, cfg).has_value());
  EXPECT_EQ(cache.stats().invalid, 1u);

  // Garbage bytes (right size, wrong content) fail the magic check.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    const std::string junk(128, 'x');
    out.write(junk.data(), static_cast<std::streamsize>(junk.size()));
  }
  EXPECT_FALSE(cache.load(key, m.net, cfg).has_value());

  // get_or_compile recompiles and heals the entry.
  const driver::NetworkProgram healed =
      cache.get_or_compile(m.net, m.model, cfg);
  EXPECT_EQ(healed.ddr_image(), fresh.ddr_image());
  EXPECT_TRUE(cache.load(key, m.net, cfg).has_value());
}

TEST_F(CompileCacheTest, VersionSkewInvalidates) {
  const zoo::ZooModel m = zoo::make_ternary_mlp(13);
  const core::ArchConfig cfg = small_config();
  driver::CompileCache cache(dir_);
  const std::uint64_t key = driver::CompileCache::key(m.net, m.model, cfg);

  // Hand-craft a file with the right magic but a stale version tag — what a
  // cache written by an older build looks like after the tag was bumped.
  std::filesystem::create_directories(dir_);
  {
    std::ofstream out(cache.path_for(key), std::ios::binary | std::ios::trunc);
    out.write("TSCAPROG", 8);
    const std::string stale = "tsca-prog-v0";
    const std::uint64_t n = stale.size();
    out.write(reinterpret_cast<const char*>(&n), 8);  // LE on every target
    out.write(stale.data(), static_cast<std::streamsize>(stale.size()));
  }
  EXPECT_FALSE(cache.load(key, m.net, cfg).has_value());
  EXPECT_EQ(cache.stats().invalid, 1u);
}

// --- concurrent writers --------------------------------------------------

TEST_F(CompileCacheTest, ConcurrentWritersPublishWholeFiles) {
  const zoo::ZooModel m = zoo::make_ternary_mlp(13);
  const core::ArchConfig cfg = small_config();

  // Several caches (think: several processes) racing get_or_compile on the
  // same directory.  Rename-on-write means whichever store lands last, the
  // published file is always one writer's complete artifact.
  constexpr int kWriters = 4;
  std::vector<driver::NetworkProgram> results;
  results.reserve(kWriters);
  std::vector<std::thread> threads;
  std::mutex mu;
  for (int i = 0; i < kWriters; ++i) {
    threads.emplace_back([&] {
      driver::CompileCache cache(dir_);
      driver::NetworkProgram p = cache.get_or_compile(m.net, m.model, cfg);
      const std::lock_guard<std::mutex> lock(mu);
      results.push_back(std::move(p));
    });
  }
  for (std::thread& t : threads) t.join();

  ASSERT_EQ(results.size(), static_cast<std::size_t>(kWriters));
  for (int i = 1; i < kWriters; ++i)
    EXPECT_EQ(results[static_cast<std::size_t>(i)].ddr_image(),
              results[0].ddr_image());

  // The surviving file is valid.
  driver::CompileCache cache(dir_);
  const std::uint64_t key = driver::CompileCache::key(m.net, m.model, cfg);
  EXPECT_TRUE(cache.load(key, m.net, cfg).has_value());
}

// --- registry integration ------------------------------------------------

TEST_F(CompileCacheTest, RegistryConsultsCacheAcrossInstances) {
  const zoo::ZooModel m = zoo::make_residual_cifar(7);
  const core::ArchConfig cfg = small_config();
  driver::CompileCache cache(dir_);
  const nn::FeatureMapI8 input = make_input(m.net.input_shape(), 0x901);

  std::vector<std::int8_t> first_logits;
  {
    driver::ProgramRegistry registry(cfg, {.compile_cache = &cache});
    registry.add_model("res", m.net, m.model);
    const driver::ProgramHandle h = registry.acquire("res");
    first_logits =
        run_program(h.program(), input, driver::ExecMode::kFast).logits;
  }
  EXPECT_EQ(cache.stats().stores, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);

  // A second registry (a later process, conceptually) hits the cache — no
  // recompile — and serves identical results.
  {
    driver::ProgramRegistry registry(cfg, {.compile_cache = &cache});
    registry.add_model("res", m.net, m.model);
    const driver::ProgramHandle h = registry.acquire("res");
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(registry.stats().compiles, 1u);  // a materialization, not a hit
    EXPECT_EQ(
        run_program(h.program(), input, driver::ExecMode::kFast).logits,
        first_logits);
  }
}

}  // namespace
}  // namespace tsca
