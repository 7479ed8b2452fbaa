// Per-lane packed weight streams.
//
// Each data-staging unit owns one quarter of the IFM channels and feeds the
// weights of the (up to four) concurrently computed filters restricted to
// those channels.  The stream it consumes is laid out in exactly its
// iteration order — lane-local channel, then weight tile, then filter:
//
//   for ci (lane channel slot)  for wty,wtx  for g in [0, active):
//       u8 count, then count × { u8 sm8-value, u8 offset }
//
// so the unit streams it strictly sequentially, re-reading from the start at
// every OFM tile position (output-stationary reuse).  The byte extents per
// (channel, weight tile) group drive the scratchpad-spill model: bytes beyond
// the weight scratchpad must be re-fetched through the bank read port at
// every position.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "pack/weight_pack.hpp"

namespace tsca::pack {

inline constexpr int kMaxConcurrentFilters = 4;

// Weights one lane injects for one (channel, weight-tile) step.
struct LaneTileGroup {
  std::array<std::vector<PackedEntry>, kMaxConcurrentFilters> lists;
  std::int64_t byte_begin = 0;  // extent within the lane stream
  std::int64_t byte_end = 0;

  int max_nnz(int active) const {
    int n = 0;
    for (int g = 0; g < active; ++g)
      n = std::max(n, static_cast<int>(lists[static_cast<std::size_t>(g)].size()));
    return n;
  }
  int total_nnz(int active) const {
    int n = 0;
    for (int g = 0; g < active; ++g)
      n += static_cast<int>(lists[static_cast<std::size_t>(g)].size());
    return n;
  }
};

// The whole stream for one (lane, OFM group).
struct LaneStream {
  int channels = 0;  // lane-local channel count
  int wtiles = 0;    // weight tiles per channel (wtiles_y * wtiles_x)
  int active = 0;    // concurrent filters
  // Ternary streams (paper future work: "binarized, ternary ... networks")
  // carry only a sign with each offset: 1 byte per entry instead of 2,
  // halving weight traffic and scratchpad pressure.
  bool ternary = false;
  std::vector<LaneTileGroup> groups;  // [ci * wtiles + wt]
  std::int64_t total_bytes = 0;

  const LaneTileGroup& group(int ci, int wt) const {
    TSCA_CHECK(ci >= 0 && ci < channels && wt >= 0 && wt < wtiles);
    return groups[static_cast<std::size_t>(ci) * wtiles + wt];
  }
  std::int64_t total_words() const {
    return (total_bytes + 15) / 16;
  }
};

// Builds the stream for output channels [oc0, oc0+active) and the IFM
// channels { lane, lane+lanes, lane+2·lanes, … } of `packed`.  With
// `ternary`, every non-zero weight must be ±1 (see is_ternary).
LaneStream build_lane_stream(const PackedFilters& packed, int oc0, int active,
                             int lane, int lanes, bool ternary = false);

// True when every packed weight is ±1 — such layers are streamed in the
// dense 1-byte ternary format automatically.
bool is_ternary(const PackedFilters& packed);

// Byte serialization of a lane stream (the image DMA'd into the bank).
std::vector<std::uint8_t> serialize_lane_stream(const LaneStream& stream);

// Inverse of serialize_lane_stream; geometry must be supplied (it travels in
// the CONV instruction, not the stream).
LaneStream parse_lane_stream(const std::vector<std::uint8_t>& bytes,
                             int channels, int wtiles, int active,
                             bool ternary = false);

// The same parse from the front of `bytes` (e.g. a bank's contents from the
// stream's base word on) into `out`, reusing the storage `out` holds from an
// earlier parse: its group table and weight lists only grow.  Bytes past the
// stream's end are not read; reading past the end of `bytes` throws.
void parse_lane_stream_into(std::span<const std::uint8_t> bytes,
                            int channels, int wtiles, int active,
                            bool ternary, LaneStream& out);

// Recycles parsed streams.  acquire() hands out a stream whose storage an
// earlier parse left behind; the stream comes back when its last shared_ptr
// is dropped, on whichever thread drops it.  The pool must outlive every
// stream it hands out.
class LaneStreamPool {
 public:
  LaneStreamPool() = default;
  LaneStreamPool(const LaneStreamPool&) = delete;
  LaneStreamPool& operator=(const LaneStreamPool&) = delete;

  std::shared_ptr<LaneStream> acquire();

 private:
  void release(LaneStream* stream) noexcept;

  std::mutex mutex_;
  std::vector<std::unique_ptr<LaneStream>> free_;
};

}  // namespace tsca::pack
