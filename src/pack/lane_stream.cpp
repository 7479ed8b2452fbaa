#include "pack/lane_stream.hpp"

#include <algorithm>

#include "quant/sm8.hpp"

namespace tsca::pack {

bool is_ternary(const PackedFilters& packed) {
  const nn::FilterShape& fs = packed.shape();
  for (int oc = 0; oc < fs.oc; ++oc)
    for (int ic = 0; ic < fs.ic; ++ic)
      for (int wty = 0; wty < packed.wtiles_y(); ++wty)
        for (int wtx = 0; wtx < packed.wtiles_x(); ++wtx)
          for (const PackedEntry& entry : packed.list(oc, ic, wty, wtx)) {
            const int v = quant::sm8_decode(entry.value);
            if (v != 1 && v != -1) return false;
          }
  return true;
}

LaneStream build_lane_stream(const PackedFilters& packed, int oc0, int active,
                             int lane, int lanes, bool ternary) {
  const nn::FilterShape& fs = packed.shape();
  TSCA_CHECK(lanes >= 1 && lane >= 0 && lane < lanes);
  TSCA_CHECK(active >= 1 && active <= kMaxConcurrentFilters);
  TSCA_CHECK(oc0 >= 0 && oc0 + active <= fs.oc,
             "filter group [" << oc0 << ',' << oc0 + active << ") of "
                              << fs.oc);
  LaneStream stream;
  stream.active = active;
  stream.ternary = ternary;
  stream.wtiles = packed.wtiles_y() * packed.wtiles_x();
  for (int c = lane; c < fs.ic; c += lanes) ++stream.channels;
  stream.groups.resize(static_cast<std::size_t>(stream.channels) *
                       stream.wtiles);

  const std::int64_t entry_bytes = ternary ? 1 : 2;
  std::int64_t offset = 0;
  int ci = 0;
  for (int c = lane; c < fs.ic; c += lanes, ++ci) {
    int wt = 0;
    for (int wty = 0; wty < packed.wtiles_y(); ++wty) {
      for (int wtx = 0; wtx < packed.wtiles_x(); ++wtx, ++wt) {
        LaneTileGroup& group =
            stream.groups[static_cast<std::size_t>(ci) * stream.wtiles + wt];
        group.byte_begin = offset;
        for (int g = 0; g < active; ++g) {
          const auto& list = packed.list(oc0 + g, c, wty, wtx);
          if (ternary)
            for (const PackedEntry& entry : list) {
              const int v = quant::sm8_decode(entry.value);
              TSCA_CHECK(v == 1 || v == -1,
                         "non-ternary weight in ternary stream: " << v);
            }
          group.lists[static_cast<std::size_t>(g)] = list;
          offset += 1 + entry_bytes * static_cast<std::int64_t>(list.size());
        }
        group.byte_end = offset;
      }
    }
  }
  stream.total_bytes = offset;
  return stream;
}

std::vector<std::uint8_t> serialize_lane_stream(const LaneStream& stream) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(static_cast<std::size_t>(stream.total_bytes));
  for (const LaneTileGroup& group : stream.groups) {
    for (int g = 0; g < stream.active; ++g) {
      const auto& list = group.lists[static_cast<std::size_t>(g)];
      TSCA_CHECK(list.size() <= kTileSize);
      bytes.push_back(static_cast<std::uint8_t>(list.size()));
      for (const PackedEntry& entry : list) {
        if (stream.ternary) {
          // 1 byte: bit 7 = sign, bits 3..0 = intra-tile offset.
          const bool negative = (entry.value & 0x80u) != 0;
          bytes.push_back(static_cast<std::uint8_t>(
              (negative ? 0x80u : 0u) | entry.offset));
        } else {
          bytes.push_back(entry.value);
          bytes.push_back(entry.offset);
        }
      }
    }
  }
  TSCA_CHECK(static_cast<std::int64_t>(bytes.size()) == stream.total_bytes,
             "lane stream size mismatch");
  return bytes;
}

void parse_lane_stream_into(std::span<const std::uint8_t> bytes,
                            int channels, int wtiles, int active,
                            bool ternary, LaneStream& out) {
  TSCA_CHECK(channels >= 0 && wtiles >= 1 && active >= 1 &&
             active <= kMaxConcurrentFilters);
  out.channels = channels;
  out.wtiles = wtiles;
  out.active = active;
  out.ternary = ternary;
  out.groups.resize(static_cast<std::size_t>(channels) * wtiles);
  std::size_t pos = 0;
  auto next = [&]() -> std::uint8_t {
    TSCA_CHECK(pos < bytes.size(), "truncated lane stream");
    return bytes[pos++];
  };
  for (LaneTileGroup& group : out.groups) {
    group.byte_begin = static_cast<std::int64_t>(pos);
    for (auto& list : group.lists) list.clear();
    for (int g = 0; g < active; ++g) {
      const int count = next();
      TSCA_CHECK(count <= kTileSize, "corrupt lane-stream count");
      auto& list = group.lists[static_cast<std::size_t>(g)];
      list.reserve(static_cast<std::size_t>(count));
      int prev = -1;
      for (int k = 0; k < count; ++k) {
        PackedEntry entry;
        if (ternary) {
          const std::uint8_t byte = next();
          entry.value = quant::sm8_encode((byte & 0x80u) != 0 ? -1 : 1);
          entry.offset = byte & 0x0fu;
          TSCA_CHECK((byte & 0x70u) == 0, "reserved ternary bits set");
        } else {
          entry.value = next();
          entry.offset = next();
        }
        TSCA_CHECK(entry.offset < kTileSize, "corrupt lane-stream offset");
        TSCA_CHECK(static_cast<int>(entry.offset) > prev,
                   "lane-stream offsets not increasing");
        prev = entry.offset;
        list.push_back(entry);
      }
    }
    group.byte_end = static_cast<std::int64_t>(pos);
  }
  out.total_bytes = static_cast<std::int64_t>(pos);
}

LaneStream parse_lane_stream(const std::vector<std::uint8_t>& bytes,
                             int channels, int wtiles, int active,
                             bool ternary) {
  LaneStream stream;
  parse_lane_stream_into(bytes, channels, wtiles, active, ternary, stream);
  return stream;
}

std::shared_ptr<LaneStream> LaneStreamPool::acquire() {
  std::unique_ptr<LaneStream> stream;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!free_.empty()) {
      stream = std::move(free_.back());
      free_.pop_back();
    }
  }
  if (stream == nullptr) stream = std::make_unique<LaneStream>();
  return std::shared_ptr<LaneStream>(
      stream.release(), [this](LaneStream* s) { release(s); });
}

void LaneStreamPool::release(LaneStream* stream) noexcept {
  std::unique_ptr<LaneStream> owned(stream);
  try {
    const std::lock_guard<std::mutex> lock(mutex_);
    free_.push_back(std::move(owned));
  } catch (...) {
    // Out of memory for the free list: the stream is simply freed.
  }
}

}  // namespace tsca::pack
