// Kernel-level SIMD backend property sweep + stripe-parallel fast-path
// determinism.
//
// Every SimdBackend operation must be bit-exact against the scalar backend on
// arbitrary inputs — overflow, rounding boundaries, zero-skip decisions and
// all.  The sweeps here hammer each vtable entry directly with randomized and
// adversarial operands (test_engine_equivalence.cpp covers the same backends
// end-to-end through whole networks); the stripe tests then pin the
// PoolRuntime's fast path — stripe row-bands fanned out across workers, plus
// the batch-major image fan-out — to the serial fast path bit-for-bit,
// statistics included.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/accelerator.hpp"
#include "core/simd.hpp"
#include "driver/accelerator_pool.hpp"
#include "driver/pool_runtime.hpp"
#include "driver/runtime.hpp"
#include "nn/layers.hpp"
#include "pack/weight_pack.hpp"
#include "util/rng.hpp"
#include "image_run.hpp"

namespace tsca {
namespace {

using core::simd::SimdBackend;

const SimdBackend* backend_named(const char* name) {
  for (const SimdBackend* be : core::simd::available_backends())
    if (std::string(be->name) == name) return be;
  return nullptr;
}

// Backends other than scalar — each test compares these against scalar.
std::vector<const SimdBackend*> wide_backends() {
  std::vector<const SimdBackend*> out;
  for (const SimdBackend* be : core::simd::available_backends())
    if (std::string(be->name) != "scalar") out.push_back(be);
  return out;
}

std::vector<std::int8_t> random_i8(std::size_t n, Rng& rng,
                                   double zero_p = 0.25) {
  std::vector<std::int8_t> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = rng.next_double() < zero_p
               ? std::int8_t{0}
               : static_cast<std::int8_t>(rng.next_int(-128, 127));
  return v;
}

std::vector<std::int32_t> random_i32(std::size_t n, Rng& rng) {
  std::vector<std::int32_t> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<std::int32_t>(
        static_cast<std::uint32_t>(rng.next_int(-(1 << 30), (1 << 30))) * 3u);
  return v;
}

TEST(SimdBackends, ScalarAndSse2AlwaysPresent) {
  ASSERT_NE(backend_named("scalar"), nullptr);
#if defined(__x86_64__)
  ASSERT_NE(backend_named("sse2"), nullptr);
#endif
  // Widest last: the entry-point choice is the back of the list.
  const auto all = core::simd::available_backends();
  for (std::size_t i = 1; i < all.size(); ++i)
    EXPECT_GE(all[i]->width, all[i - 1]->width);
}

TEST(SimdBackends, MacMatchesScalar) {
  const SimdBackend* scalar = backend_named("scalar");
  ASSERT_NE(scalar, nullptr);
  Rng rng(0x11A0);
  for (const int n : {1, 2, 3, 7, 16}) {
    const std::vector<std::int8_t> x = random_i8(16u * n, rng);
    const std::vector<std::int32_t> base = random_i32(16u * n, rng);
    for (const std::int8_t w : {std::int8_t{-128}, std::int8_t{-3},
                                std::int8_t{0}, std::int8_t{7},
                                std::int8_t{127}}) {
      std::vector<std::int32_t> want = base;
      scalar->mac(want.data(), x.data(), w, n);
      for (const SimdBackend* be : wide_backends()) {
        std::vector<std::int32_t> got = base;
        be->mac(got.data(), x.data(), w, n);
        EXPECT_EQ(got, want) << be->name << " n=" << n << " w=" << int{w};
      }
    }
  }
}

TEST(SimdBackends, DotMatchesScalarIncludingOverflow) {
  const SimdBackend* scalar = backend_named("scalar");
  ASSERT_NE(scalar, nullptr);
  Rng rng(0xD07);
  for (const int n : {1, 2, 5, 33, 64}) {
    std::vector<std::int8_t> a = random_i8(16u * n, rng);
    std::vector<std::int8_t> b = random_i8(16u * n, rng);
    // Saturate a stretch with the extreme product so the int32 accumulator
    // wraps: wrapping addition is order-independent, so every backend must
    // still return the identical value.
    for (std::size_t i = 0; i < a.size() / 2; ++i) {
      a[i] = -128;
      b[i] = 127;
    }
    const std::int32_t want = scalar->dot(a.data(), b.data(), n);
    for (const SimdBackend* be : wide_backends())
      EXPECT_EQ(be->dot(a.data(), b.data(), n), want)
          << be->name << " n=" << n;
  }
}

TEST(SimdBackends, Dot4EqualsFourDots) {
  Rng rng(0xD074);
  for (const int n : {1, 3, 8, 33}) {
    const std::vector<std::int8_t> a = random_i8(16u * n, rng);
    std::vector<std::vector<std::int8_t>> streams;
    for (int k = 0; k < 4; ++k) streams.push_back(random_i8(16u * n, rng));
    const std::int8_t* b[4] = {streams[0].data(), streams[1].data(),
                               streams[2].data(), streams[3].data()};
    for (const SimdBackend* be : core::simd::available_backends()) {
      std::int32_t out[4] = {};
      be->dot4(a.data(), b, n, out);
      for (int k = 0; k < 4; ++k)
        EXPECT_EQ(out[k], be->dot(a.data(), b[k], n))
            << be->name << " n=" << n << " stream " << k;
    }
  }
}

TEST(SimdBackends, RequantizeMatchesScalar) {
  const SimdBackend* scalar = backend_named("scalar");
  ASSERT_NE(scalar, nullptr);
  Rng rng(0x4E9);
  for (const int shift : {0, 1, 6, 15, 30, 31}) {
    for (const bool relu : {false, true}) {
      const int n = 5;
      std::vector<std::int32_t> acc = random_i32(16u * n, rng);
      // Rounding boundaries: exactly half, half minus one, and the clamp
      // edges (round half away from zero, clamp to [-127, 127]).
      if (shift > 0) {
        acc[0] = 1 << (shift - 1);
        acc[1] = (1 << (shift - 1)) - 1;
        acc[2] = -(1 << (shift - 1));
        acc[3] = -(1 << (shift - 1)) + 1;
      }
      acc[4] = INT32_MAX;
      acc[5] = INT32_MIN;
      acc[6] = 0;
      std::vector<std::int8_t> want(acc.size());
      scalar->requantize(acc.data(), want.data(), shift, relu, n);
      for (const SimdBackend* be : wide_backends()) {
        std::vector<std::int8_t> got(acc.size());
        be->requantize(acc.data(), got.data(), shift, relu, n);
        EXPECT_EQ(got, want)
            << be->name << " shift=" << shift << " relu=" << relu;
      }
    }
  }
}

TEST(SimdBackends, MaskedMax16MatchesScalar) {
  const SimdBackend* scalar = backend_named("scalar");
  ASSERT_NE(scalar, nullptr);
  Rng rng(0x3A5);
  for (int rep = 0; rep < 32; ++rep) {
    const std::vector<std::int8_t> v = random_i8(16, rng, 0.1);
    std::uint8_t mask[16];
    for (int i = 0; i < 16; ++i)
      mask[i] = rng.next_bool() ? std::uint8_t{0xff} : std::uint8_t{0};
    if (rep == 0) std::memset(mask, 0, sizeof mask);  // fully masked: -127
    if (rep == 1) std::memset(mask, 0xff, sizeof mask);
    const std::int8_t want = scalar->masked_max16(v.data(), mask);
    if (rep == 0) EXPECT_EQ(want, nn::kInt8Min);
    for (const SimdBackend* be : wide_backends())
      EXPECT_EQ(be->masked_max16(v.data(), mask), want)
          << be->name << " rep=" << rep;
  }
}

TEST(SimdBackends, PoolStepMatchesScalar) {
  const SimdBackend* scalar = backend_named("scalar");
  ASSERT_NE(scalar, nullptr);
  Rng rng(0x9001);
  for (int rep = 0; rep < 48; ++rep) {
    core::simd::PoolStepCtl ctl{};
    for (int m = 0; m < 4; ++m)
      for (int i = 0; i < 16; ++i)
        ctl.max_mask[m][i] = rng.next_bool() ? std::uint8_t{0xff}
                                             : std::uint8_t{0};
    for (int i = 0; i < 16; ++i) {
      const int unit = rng.next_int(0, 3);
      const int mode = rng.next_int(0, 2);  // take / combine / keep
      ctl.unit4[i] = mode == 2 ? std::uint8_t{0}
                               : static_cast<std::uint8_t>(4 * unit);
      ctl.take[i] = mode == 0 ? std::uint8_t{0xff} : std::uint8_t{0};
      ctl.comb[i] = mode == 1 ? std::uint8_t{0xff} : std::uint8_t{0};
    }
    const std::vector<std::int8_t> tile = random_i8(16, rng, 0.2);
    const std::vector<std::int8_t> init = random_i8(16, rng, 0.2);

    std::vector<std::int8_t> want = init;
    scalar->pool_step(tile.data(), ctl, want.data());
    for (const SimdBackend* be : wide_backends()) {
      std::vector<std::int8_t> got = init;
      be->pool_step(tile.data(), ctl, got.data());
      EXPECT_EQ(got, want) << be->name << " rep=" << rep;
    }
  }
}

TEST(SimdBackends, IsZeroMatchesScalar) {
  const SimdBackend* scalar = backend_named("scalar");
  ASSERT_NE(scalar, nullptr);
  for (const int n : {1, 2, 4, 9}) {
    std::vector<std::int8_t> x(16u * n, 0);
    for (const SimdBackend* be : core::simd::available_backends())
      EXPECT_TRUE(be->is_zero(x.data(), n)) << be->name << " n=" << n;
    // A single nonzero byte anywhere must flip the probe on every backend.
    for (const std::size_t pos :
         {std::size_t{0}, x.size() / 2, x.size() - 1}) {
      x[pos] = -1;
      const bool want = scalar->is_zero(x.data(), n);
      EXPECT_FALSE(want);
      for (const SimdBackend* be : wide_backends())
        EXPECT_EQ(be->is_zero(x.data(), n), want)
            << be->name << " n=" << n << " pos=" << pos;
      x[pos] = 0;
    }
  }
}

TEST(SimdBackends, ConvRunMatchesScalar) {
  const SimdBackend* scalar = backend_named("scalar");
  ASSERT_NE(scalar, nullptr);
  Rng rng(0xC049);
  for (const int n : {1, 2, 7, 16, 19}) {
    // A strided pixel plane per image; every fourth image's region zeroed so
    // the per-image skip decision is part of what the comparison pins.
    const std::ptrdiff_t row_stride = 24;
    const std::ptrdiff_t img_stride = row_stride * 4 + 8;
    std::vector<std::int8_t> plane =
        random_i8(static_cast<std::size_t>(img_stride) * n, rng, 0.3);
    for (int i = 0; i < n; i += 4)
      for (int r = 0; r < 4; ++r)
        std::memset(plane.data() + i * img_stride + r * row_stride, 0, 4);

    const int rows = 6;
    const std::size_t stride = 16u * n + 8;  // slack: strides need not be tight
    std::vector<core::simd::MacRunEntry> entries;
    const int count = rng.next_int(1, 6);
    for (int e = 0; e < count; ++e)
      entries.push_back({static_cast<std::uint16_t>(rng.next_int(0, rows - 1)),
                         static_cast<std::int8_t>(rng.next_int(-15, 15)), 0});

    const std::vector<std::int32_t> base = random_i32(stride * rows, rng);
    std::vector<std::int32_t> want = base;
    const int want_nz =
        scalar->conv_run(want.data(), stride, entries.data(), count,
                         plane.data(), img_stride, row_stride, n);
    for (const SimdBackend* be : wide_backends()) {
      std::vector<std::int32_t> got = base;
      const int got_nz =
          be->conv_run(got.data(), stride, entries.data(), count, plane.data(),
                       img_stride, row_stride, n);
      EXPECT_EQ(got_nz, want_nz) << be->name << " n=" << n;
      EXPECT_EQ(got, want) << be->name << " n=" << n;
    }
  }
}

// --- Stripe-parallel fast path ------------------------------------------
//
// The fast path's ConvPlan stripes fan out across AcceleratorPool workers
// (disjoint output row-bands, stats summed in stripe index order), so pooled
// fast execution must be bit-identical to serial fast execution — outputs,
// predicted cycles/counters, and FastConvStats — for any worker count.

nn::FeatureMapI8 random_fm(nn::FmShape shape, Rng& rng) {
  nn::FeatureMapI8 fm(shape);
  for (std::size_t i = 0; i < fm.size(); ++i)
    fm.data()[i] = static_cast<std::int8_t>(rng.next_int(-40, 40));
  return fm;
}

nn::FilterBankI8 random_filters(nn::FilterShape shape, double density,
                                Rng& rng) {
  nn::FilterBankI8 bank(shape);
  for (std::size_t i = 0; i < bank.size(); ++i)
    if (rng.next_double() < density)
      bank.data()[i] = static_cast<std::int8_t>(rng.next_int(-15, 15));
  return bank;
}

void expect_same_fast_run(const driver::LayerRun& serial,
                          const driver::LayerRun& pooled) {
  EXPECT_EQ(serial.cycles, pooled.cycles);
  EXPECT_EQ(serial.stripes, pooled.stripes);
  EXPECT_EQ(serial.macs, pooled.macs);
  EXPECT_EQ(serial.counters, pooled.counters);
  EXPECT_EQ(serial.fast.regions, pooled.fast.regions);
  EXPECT_EQ(serial.fast.regions_zero, pooled.fast.regions_zero);
  EXPECT_EQ(serial.fast.mac_tiles, pooled.fast.mac_tiles);
  EXPECT_EQ(serial.fast.mac_tiles_skipped, pooled.fast.mac_tiles_skipped);
}

class FastStripeWorkers : public ::testing::TestWithParam<int> {};

TEST_P(FastStripeWorkers, FastConvMatchesSerial) {
  Rng rng(0xFA57);
  const pack::TiledFm input = pack::to_tiled(random_fm({16, 28, 28}, rng));
  const pack::PackedFilters packed =
      pack::pack_filters(random_filters({16, 16, 3, 3}, 0.5, rng));
  const std::vector<std::int32_t> bias(16, -4);
  const nn::Requant rq{.shift = 6, .relu = true};

  core::ArchConfig cfg = core::ArchConfig::k256_opt();
  cfg.bank_words = 128;  // small banks force stripes
  const driver::ConvProgram conv =
      driver::compile_conv(cfg, input.shape(), packed, bias, rq);

  core::Accelerator acc(cfg);
  sim::Dram dram(32u << 20);
  sim::DmaEngine dma(dram);
  driver::Runtime serial(acc, dram, dma, {.mode = driver::ExecMode::kFast});
  driver::LayerRun serial_run;
  const pack::TiledFm serial_out = conv_image(serial, input, conv, serial_run);
  ASSERT_GT(serial_run.stripes, 1);

  driver::AcceleratorPool pool(cfg, {.workers = GetParam()});
  driver::PoolRuntime pooled(pool, {.mode = driver::ExecMode::kFast});
  driver::LayerRun pooled_run;
  const pack::TiledFm pooled_out = conv_image(pooled, input, conv, pooled_run);

  EXPECT_EQ(serial_out, pooled_out);
  expect_same_fast_run(serial_run, pooled_run);
}

TEST_P(FastStripeWorkers, FastConvBatchMatchesSerial) {
  Rng rng(0xFA58);
  constexpr int kBatch = 5;
  std::vector<pack::TiledFm> images;
  for (int i = 0; i < kBatch; ++i)
    images.push_back(pack::to_tiled(random_fm({16, 28, 28}, rng)));
  const pack::PackedFilters packed =
      pack::pack_filters(random_filters({16, 16, 3, 3}, 0.5, rng));
  const std::vector<std::int32_t> bias(16, 3);
  const nn::Requant rq{.shift = 6, .relu = true};

  core::ArchConfig cfg = core::ArchConfig::k256_opt();
  cfg.bank_words = 128;
  const driver::ConvProgram conv =
      driver::compile_conv(cfg, images.front().shape(), packed, bias, rq);

  core::Accelerator acc(cfg);
  sim::Dram dram(32u << 20);
  sim::DmaEngine dma(dram);
  driver::Runtime serial(acc, dram, dma, {.mode = driver::ExecMode::kFast});
  driver::LayerRun serial_run;
  std::vector<pack::TiledFm> serial_out = images;
  serial.run_conv_batch(serial_out, conv, serial_run);

  driver::AcceleratorPool pool(cfg, {.workers = GetParam()});
  driver::PoolRuntime pooled(pool, {.mode = driver::ExecMode::kFast});
  driver::LayerRun pooled_run;
  std::vector<pack::TiledFm> pooled_out = images;
  pooled.run_conv_batch(pooled_out, conv, pooled_run);

  ASSERT_EQ(serial_out.size(), pooled_out.size());
  for (int i = 0; i < kBatch; ++i)
    EXPECT_EQ(serial_out[static_cast<std::size_t>(i)],
              pooled_out[static_cast<std::size_t>(i)])
        << "image " << i;
  expect_same_fast_run(serial_run, pooled_run);
}

TEST_P(FastStripeWorkers, FastPoolMatchesSerial) {
  Rng rng(0xFA59);
  const nn::FeatureMapI8 image = random_fm({8, 14, 14}, rng);
  const nn::FmShape out_shape{8, 7, 7};

  core::ArchConfig cfg = core::ArchConfig::k256_opt();
  cfg.bank_words = 128;
  const driver::PoolPlan plan = driver::compile_pool(
      cfg, image.shape(), out_shape, core::Opcode::kPool, 2, 2, 0, 0);

  core::Accelerator acc(cfg);
  sim::Dram dram(32u << 20);
  sim::DmaEngine dma(dram);
  driver::Runtime serial(acc, dram, dma, {.mode = driver::ExecMode::kFast});
  driver::LayerRun serial_run;
  const pack::TiledFm serial_out =
      serial.run_pad_pool(pack::to_tiled(image), plan, serial_run);

  driver::AcceleratorPool pool(cfg, {.workers = GetParam()});
  driver::PoolRuntime pooled(pool, {.mode = driver::ExecMode::kFast});
  driver::LayerRun pooled_run;
  const pack::TiledFm pooled_out =
      pooled.run_pad_pool(pack::to_tiled(image), plan, pooled_run);

  EXPECT_EQ(serial_out, pooled_out);
  expect_same_fast_run(serial_run, pooled_run);
}

INSTANTIATE_TEST_SUITE_P(Workers, FastStripeWorkers,
                         ::testing::Values(1, 2, 8), [](const auto& info) {
                           return "w" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace tsca
