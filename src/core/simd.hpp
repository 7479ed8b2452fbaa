// Runtime-dispatched SIMD kernel backends for the functional fast path.
//
// The datapath applies one non-zero weight to a 16-value IFM tile per cycle
// (§III-B) — one host SIMD multiply-accumulate per tile.  The paper widens
// its dot-product datapath from 16 to 512 MACs across variants; this layer
// widens the host kernels the same way: a SimdBackend is a small vtable of
// tile-group operations —
//
//   mac          acc[i] += x[i] * w over n groups of 16 (int8 × int8 → int32)
//   conv_run     the fast path's inner loop: gather one 4×4 region per image
//                straight from a strided pixel plane, probe it for zero, and
//                apply a run of (accumulator row, weight) entries to every
//                non-zero image — gather, widen, sparsity test and MACs fused
//                into one dispatch per run, images that gathered all-zero
//                skipped entirely (acc += 0·w is a no-op, so the skip is
//                bit-exact)
//   conv_win     optional whole-window kernel (3×3-kernel layers): one 8×8
//                pixel window load per (channel, image), then each quad of
//                ≤ 4 taps lands with a single byte-permute + int8
//                dot-accumulate — the widest backend's replacement for a
//                conv_run per offset run
//   dot          sum of a[i] * b[i] over n groups of 16, wrapped mod 2^32
//                (int32 addition is commutative/associative under wrapping,
//                so every backend returns the identical value)
//   dot4         four dot products against one shared stream in a single
//                dispatch — the batch-major FC path's op, streaming each
//                weight row's bytes through the registers once for four
//                images instead of once per image
//   requantize   nn::requantize over n groups of 16 int32 accumulators
//   masked_max16 max over the selected bytes of one tile (pool max unit)
//   pool_step    one whole pool/pad micro-op: all four masked MAX units plus
//                the take/combine/keep output mux applied to a 16-byte output
//                register in a single dispatch (controls precompiled into a
//                PoolStepCtl once per step, reused across channels/images)
//   is_zero      all-zero probe over n groups of 16 (activation zero-skip)
//
// implemented at 16 (scalar, SSE2), 32 (AVX2) and 64 (AVX-512) int8 lanes
// per native vector op.  The group-count form is what lets batch-major
// execution put several images' tiles into one call: n images × 16 values
// is a single contiguous mac regardless of the backend's native width.
//
// Backend selection happens once, at first use, via CPUID
// (__builtin_cpu_supports): the widest supported implementation wins.
// TSCA_FORCE_BACKEND=<scalar|sse2|avx2|avx512> overrides the choice (and
// fails hard when the named backend is missing or unsupported — a typo'd
// test matrix must not silently measure the wrong kernels).  Tests may also
// switch backends in-process with select_backend().  Every backend is
// bit-exact against nn::requantize and the cycle engine; the wider
// implementations are compiled with per-function target attributes, so no
// global -mavx2 style flags are ever added and the library cannot fault on
// older hosts.  The TSCA_SIMD CMake option (default ON) gates every
// intrinsic path; -DTSCA_SIMD=OFF leaves only the scalar backend.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tsca::core::simd {

// One step of a conv_run: accumulate `w` times the shared region into
// accumulator row `row` (rows are `stride` int32s apart).  The layout matches
// the fast path's packed weight entries so a sorted entry run can be handed
// to the backend without repacking; `tag` is carried, never read.
struct MacRunEntry {
  std::uint16_t row;
  std::int8_t w;
  std::uint8_t tag;
};

// One pool/pad micro-op (core::PoolPadOp) precompiled into the byte-vector
// controls the SIMD mux needs, so a step decoded once can be replayed for
// every channel (and image) with zero per-call expansion work.  Built by the
// fast path from the op's bit masks / select codes:
//
//   max_mask[m][i]  0xff when input value i feeds MAX unit m (else 0x00)
//   unit4[i]        4 * (out_sel[i] & 3) — the byte index of output i's MAX
//                   unit in a vector that packs unit m's result at byte 4m
//                   (0 when out_sel keeps the old value; never read then)
//   take[i]         0xff when out_sel takes a fresh MAX output (sel < 4)
//   comb[i]         0xff when out_sel running-max combines with the old value
//
// take and comb are disjoint; a byte with neither keeps the old value.
struct PoolStepCtl {
  alignas(16) std::uint8_t max_mask[4][16];
  alignas(16) std::uint8_t unit4[16];
  alignas(16) std::uint8_t take[16];
  alignas(16) std::uint8_t comb[16];
};

struct SimdBackend {
  const char* name;  // "scalar", "sse2", "avx2", "avx512"
  int width;         // int8 lanes per native vector op: 16, 32 or 64

  // acc[i] += x[i] * w for i in [0, n*16).
  void (*mac)(std::int32_t* acc, const std::int8_t* x, std::int8_t w, int n);
  // The fast conv inner loop over one region run.  For each image i in
  // [0, n) the 16-value region is the four 4-byte rows at
  //   src + i*img_stride + r*row_stride        (r in 0..3, row-major),
  // gathered directly from the caller's pixel plane.  An image whose region
  // is entirely zero is skipped; otherwise every entry e applies
  //   acc[e.row*stride + i*16 + p] += region[p] * e.w    (p in 0..15)
  // in entry order.  Returns how many images gathered non-zero (0 lets the
  // caller count the whole run as activation-skipped).  Bit-exact across
  // backends and with the unskipped loop: the elided MACs all add 0·w.
  int (*conv_run)(std::int32_t* acc, std::size_t stride, const MacRunEntry* e,
                  int count, const std::int8_t* src, std::ptrdiff_t img_stride,
                  std::ptrdiff_t row_stride, int n);
  // Optional whole-window kernel (nullptr when the backend has none; callers
  // must also check conv_win_host_ok()).  For each image i in [0, n) the 8×8
  // pixel window at src + i*img_stride (8-byte rows, row_stride apart) is
  // loaded once and masks[i] receives its nonzero-byte bitmask (bit r*8 + x,
  // the per-region zero probe's raw material).  Each quad q then applies up
  // to four taps to accumulator row qrow[q]: idx + q*64 byte-gathers the
  // taps' 16-value regions interleaved per lane, w[q] packs their four int8
  // weights little-endian, and corr[q] = 128 * (their sum) removes the
  // kernel's unsigned-operand bias exactly.  Images whose window is all zero
  // are skipped (their true contribution is zero).  Bit-exact with the
  // equivalent conv_run runs: int32 accumulation wraps, so regrouping taps
  // cannot change the result.
  void (*conv_win)(std::int32_t* acc, std::size_t stride,
                   const std::uint8_t* idx, const std::uint32_t* w,
                   const std::int32_t* corr, const std::uint16_t* qrow,
                   int quads, const std::int8_t* src,
                   std::ptrdiff_t img_stride, std::ptrdiff_t row_stride, int n,
                   std::uint64_t* masks);
  // Sum of a[i] * b[i] over [0, n*16), accumulated mod 2^32 (identical
  // across backends for any summation order, overflow included).
  std::int32_t (*dot)(const std::int8_t* a, const std::int8_t* b, int n);
  // out[k] = dot(a, b[k], n) for k in 0..3, loading each group of `a` once
  // for all four streams.  Exactly equal to four dot calls on every backend.
  void (*dot4)(const std::int8_t* a, const std::int8_t* const b[4], int n,
               std::int32_t out[4]);
  // nn::requantize (round half away from zero, optional ReLU, clamp to
  // [-127, 127]) over [0, n*16).  Any shift; backends fall back to the
  // scalar formula outside their fast range.
  void (*requantize)(const std::int32_t* acc, std::int8_t* out, int shift,
                     bool relu, int n);
  // Max over the bytes of one 16-value tile selected by `mask` (0xFF take /
  // 0x00 skip), starting from the datapath's fill value kInt8Min (-127) —
  // NOT -128, so a fully-masked unit bit-matches the hardware max tree.
  std::int8_t (*masked_max16)(const std::int8_t* v, const std::uint8_t* mask);
  // Applies one precompiled pool/pad micro-op to the 16-byte output register
  // `out`: every MAX unit reduces the bytes of `tile` its mask selects
  // (starting from kInt8Min, like masked_max16), then each output byte takes
  // its unit's max, running-max combines with it, or keeps its old value per
  // the ctl select masks.  Bit-exact with four masked_max16 calls plus the
  // scalar mux across all backends.
  void (*pool_step)(const std::int8_t* tile, const PoolStepCtl& ctl,
                    std::int8_t* out);
  // True when x[0 .. n*16) is entirely zero — the activation-sparsity probe
  // mirroring the paper's weight zero-skip on the feature-map side.
  bool (*is_zero)(const std::int8_t* x, int n);
};

// The active backend: chosen on first call (CPUID, overridable with the
// TSCA_FORCE_BACKEND environment variable) and stable until select_backend.
const SimdBackend& backend();
inline const char* backend_name() { return backend().name; }

// Every backend this build supports on this host, widest last.
std::vector<const SimdBackend*> available_backends();

// True when the host CPU can execute the active backend's conv_win
// specialization (AVX-512 VBMI + VNNI for the avx512 backend).  A non-null
// conv_win may still be unusable on narrower hosts the backend itself runs
// on, so callers check both.
bool conv_win_host_ok();

// Forces `name` as the active backend (tests; the equivalence matrix).
// Returns false — leaving the active backend unchanged — when the name is
// unknown, compiled out, or unsupported by the host CPU.
bool select_backend(const char* name);

}  // namespace tsca::core::simd
