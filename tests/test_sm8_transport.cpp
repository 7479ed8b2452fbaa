// sm8 transport canonicality property: every octet the simulator transports
// in sign+magnitude format — packed weight entries, the serialized weight
// stream, tile words, and SRAM bank contents after conv/pool execution —
// must be a canonical encoding (no -0 = 0x80), over randomized shapes and
// weight sparsities.  The datapath decodes to two's complement and
// re-encodes on write-back, so a single missed canonicalization would leak
// 0x80 octets into banks or streams.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/accelerator.hpp"
#include "driver/runtime.hpp"
#include "pack/weight_pack.hpp"
#include "quant/sm8.hpp"
#include "sim/sram.hpp"
#include "util/rng.hpp"
#include "image_run.hpp"

namespace tsca {
namespace {

nn::FeatureMapI8 random_fm(nn::FmShape shape, Rng& rng) {
  nn::FeatureMapI8 fm(shape);
  for (std::size_t i = 0; i < fm.size(); ++i)
    fm.data()[i] = static_cast<std::int8_t>(rng.next_int(-127, 127));
  return fm;
}

nn::FilterBankI8 random_filters(nn::FilterShape shape, double density,
                                Rng& rng) {
  nn::FilterBankI8 bank(shape);
  for (std::size_t i = 0; i < bank.size(); ++i)
    if (rng.next_double() < density)
      bank.data()[i] = static_cast<std::int8_t>(rng.next_int(-127, 127));
  return bank;
}

void expect_canonical_bank_contents(core::Accelerator& acc,
                                    const char* context) {
  for (int lane = 0; lane < acc.num_banks(); ++lane) {
    const sim::SramBank& bank = acc.bank(lane);
    for (int addr = 0; addr < bank.size_words(); ++addr) {
      const sim::Word word = bank.read_word(addr);
      for (int i = 0; i < sim::kWordBytes; ++i)
        ASSERT_TRUE(quant::sm8_is_canonical(word.b[static_cast<std::size_t>(i)]))
            << context << ": bank " << lane << " word " << addr << " octet "
            << i << " is -0";
    }
  }
}

// Packed entries and the serialized stream only carry canonical value octets
// (count and offset bytes are < 0x80 by construction).
TEST(Sm8Transport, PackerAndStreamAreCanonical) {
  Rng rng(21);
  for (const double density : {0.0, 0.1, 0.5, 1.0}) {
    const int oc = rng.next_int(1, 12);
    const int ic = rng.next_int(1, 12);
    const pack::PackedFilters packed =
        pack::pack_filters(random_filters({oc, ic, 3, 3}, density, rng));

    for (int o = 0; o < oc; ++o)
      for (int c = 0; c < ic; ++c)
        for (const pack::PackedEntry& e : packed.list(o, c, 0, 0)) {
          ASSERT_TRUE(quant::sm8_is_canonical(e.value));
          ASSERT_NE(quant::sm8_decode(e.value), 0)
              << "packed zero weight at density " << density;
        }

    // Walk the serialized stream: u8 count, then count × {value, offset}.
    const std::vector<std::uint8_t> bytes = pack::serialize(packed);
    std::size_t pos = 0;
    while (pos < bytes.size()) {
      const int count = bytes[pos++];
      for (int k = 0; k < count; ++k) {
        ASSERT_TRUE(quant::sm8_is_canonical(bytes[pos]))
            << "stream value octet at " << pos;
        ASSERT_LT(bytes[pos + 1], 16u) << "offset octet at " << pos + 1;
        pos += 2;
      }
    }
    ASSERT_EQ(pos, bytes.size());
  }
}

// Tile → word encoding never produces -0, for any representable tile value.
TEST(Sm8Transport, WordFromTileIsCanonical) {
  Rng rng(22);
  for (int iter = 0; iter < 200; ++iter) {
    pack::Tile tile{};
    for (auto& v : tile.v)
      v = static_cast<std::int8_t>(rng.next_int(-127, 127));
    const sim::Word word = sim::word_from_tile(tile);
    for (const std::uint8_t octet : word.b)
      ASSERT_TRUE(quant::sm8_is_canonical(octet));
    // Transport round trip: decode + re-encode is the identity on canonical
    // words, so a value can cross any number of bank/FIFO hops unchanged.
    EXPECT_EQ(sim::word_from_tile(sim::tile_from_word(word)), word);
  }
}

// After striped conv + pool execution the banks hold IFM/OFM tiles and the
// packed weight stream; every octet must still be canonical.
TEST(Sm8Transport, BankContentsCanonicalAfterConvAndPool) {
  Rng rng(23);
  for (const double density : {0.0, 0.25, 1.0}) {
    const int c = rng.next_int(3, 9);
    const int oc = rng.next_int(3, 9);
    const int h = rng.next_int(8, 16);
    const int w = rng.next_int(8, 16);

    core::ArchConfig cfg = core::ArchConfig::k256_opt();
    cfg.bank_words = 128;  // force striping + weight chunking
    core::Accelerator acc(cfg);
    sim::Dram dram(32u << 20);
    sim::DmaEngine dma(dram);
    driver::Runtime rt(acc, dram, dma, {.mode = driver::ExecMode::kCycle});

    const pack::TiledFm input = pack::to_tiled(random_fm({c, h, w}, rng));
    const pack::PackedFilters packed =
        pack::pack_filters(random_filters({oc, c, 3, 3}, density, rng));
    const std::vector<std::int32_t> bias(static_cast<std::size_t>(oc), -3);

    driver::LayerRun run;
    const pack::TiledFm conv_out = conv_image(
        rt, input,
        driver::compile_conv(cfg, input.shape(), packed, bias,
                             nn::Requant{.shift = 5, .relu = false}),
        run);
    expect_canonical_bank_contents(acc, "after conv");

    const nn::FmShape ps = conv_out.shape();
    const nn::FmShape pool_out{ps.c, ps.h / 2, ps.w / 2};
    if (pool_out.h > 0 && pool_out.w > 0) {
      rt.run_pad_pool(conv_out,
                      driver::compile_pool(cfg, ps, pool_out,
                                           core::Opcode::kPool, 2, 2, 0, 0),
                      run);
      expect_canonical_bank_contents(acc, "after pool");
    }
  }
}

}  // namespace
}  // namespace tsca
