#include "core/kernels.hpp"

#include <algorithm>
#include <memory>
#include <span>

#include "core/poolgen.hpp"
#include "pack/lane_stream.hpp"
#include "quant/sm8.hpp"

namespace tsca::core {

int lane_channel_count(int channels, int lane, int lanes) {
  TSCA_CHECK(channels >= 0 && lane >= 0 && lane < lanes);
  if (channels <= lane) return 0;
  return (channels - lane + lanes - 1) / lanes;
}

// ---------------------------------------------------------------------------
// Controller: decodes host instructions and dispatches per-unit work.
// ---------------------------------------------------------------------------
hls::Kernel controller_kernel(ControllerCtx ctx) {
  hls::Domain& d = *ctx.shared.domain;
  const ArchConfig& cfg = *ctx.shared.cfg;
  KernelCounters counters(*ctx.shared.counters);
  CounterSnapshot& ctr = counters.counts;
  for (;;) {
    const Instruction instr = co_await ctx.host_q->pop();
    co_await hls::clk(d);
    if (instr.op == Opcode::kHalt) {
      FetchCmd halt;
      halt.halt = true;
      for (auto* fifo : ctx.fetch_cmd) {
        co_await fifo->push(halt);
        co_await hls::clk(d);
      }
      for (auto* fifo : ctx.acc_ctrl) {
        co_await fifo->push(AccCtrl{.halt = true});
        co_await hls::clk(d);
      }
      for (auto* fifo : ctx.write_ctrl) {
        WriteCtrl halt_ctrl;
        halt_ctrl.halt = true;
        co_await fifo->push(halt_ctrl);
        co_await hls::clk(d);
      }
      break;
    }

    FetchCmd cmd;
    cmd.instr = instr;
    for (auto* fifo : ctx.fetch_cmd) {
      co_await fifo->push(cmd);
      co_await hls::clk(d);
    }

    if (instr.op == Opcode::kConv) {
      ++ctr.conv_instrs;
      const ConvInstr& c = instr.conv;
      for (int g = 0; g < cfg.group; ++g) {
        AccCtrl a;
        a.positions = c.positions();
        a.bias = (g < c.active_filters)
                     ? c.bias[static_cast<std::size_t>(g)]
                     : 0;
        co_await ctx.acc_ctrl[static_cast<std::size_t>(g)]->push(a);
        co_await hls::clk(d);
      }
      for (int lane = 0; lane < cfg.lanes; ++lane) {
        // Group slot g maps to write unit/bank (oc0 + g) % lanes == g
        // (oc0 is a multiple of group and group == lanes).
        WriteCtrl w;
        w.is_conv = true;
        w.positions = c.positions();
        w.active = lane < c.active_filters;
        w.requant = nn::Requant{.shift = static_cast<int>(c.shift),
                                .relu = c.relu};
        w.ofm_base = c.ofm_base;
        w.ofm_tiles_x = c.ofm_tiles_x;
        w.ofm_tiles_y = c.ofm_tiles_y;
        w.channel_slot = (c.oc0 + lane) / cfg.lanes;
        co_await ctx.write_ctrl[static_cast<std::size_t>(lane)]->push(w);
        co_await hls::clk(d);
      }
    } else {
      ++(instr.op == Opcode::kPad ? ctr.pad_instrs : ctr.pool_instrs);
      const PadPoolInstr& p = instr.pp;
      for (int lane = 0; lane < cfg.lanes; ++lane) {
        WriteCtrl w;
        w.is_conv = false;
        w.count = lane_channel_count(p.channels, lane, cfg.lanes) *
                  p.ofm_tiles_x * p.ofm_tiles_y;
        co_await ctx.write_ctrl[static_cast<std::size_t>(lane)]->push(w);
        co_await hls::clk(d);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Data-staging, memory half: streams packed weights and IFM tile windows
// through the bank read port.
// ---------------------------------------------------------------------------
hls::Kernel fetch_kernel(FetchCtx ctx) {
  hls::Domain& d = *ctx.shared.domain;
  const ArchConfig& cfg = *ctx.shared.cfg;
  KernelCounters counters(*ctx.shared.counters);
  CounterSnapshot& ctr = counters.counts;
  sim::SramBank& bank = *ctx.bank;
  std::vector<std::vector<PoolStep>> pool_steps;  // [oty * ofm_tiles_x + otx]

  for (;;) {
    const FetchCmd cmd = co_await ctx.cmd_in->pop();
    co_await hls::clk(d);
    if (cmd.halt) {
      WindowBundle halt;
      halt.halt = true;
      co_await ctx.bundle_out->push(halt);
      PoolCmd pool_halt;
      pool_halt.halt = true;
      co_await ctx.pool_out->push(pool_halt);
      break;
    }

    if (cmd.instr.op == Opcode::kConv) {
      const ConvInstr& c = cmd.instr.conv;
      const int my_channels =
          lane_channel_count(c.ifm_channels, ctx.lane, cfg.lanes);
      const int wtiles_x = c.wtiles_x();
      const int wtiles = c.wtiles_y() * wtiles_x;

      // Parse this lane's packed stream (offline-packed, §III-B) straight
      // from the bank's octets into recycled storage; reading is functional
      // here, the port cost is charged below.
      const std::shared_ptr<pack::LaneStream> stream = ctx.streams->acquire();
      pack::parse_lane_stream_into(
          my_channels > 0 ? bank.bytes_from(c.weight_base)
                          : std::span<const std::uint8_t>{},
          my_channels, wtiles, c.active_filters, c.ternary_weights, *stream);

      // Scratchpad preload: the DMA'd packed stream is staged into the
      // weight scratchpad once per instruction.
      const std::int64_t preload_words =
          std::min<std::int64_t>(stream->total_words(),
                                 cfg.weight_scratch_words);
      for (std::int64_t w = 0; w < preload_words; ++w) {
        co_await bank.read_port().grant();
        ++ctr.weight_word_reads;
        co_await hls::clk(d);
      }
      const std::int64_t scratch_bytes =
          static_cast<std::int64_t>(cfg.weight_scratch_words) *
          sim::kWordBytes;

      // Count compute steps per position (for end-of-tile marking).
      int total_steps = 0;
      for (int ci = 0; ci < my_channels; ++ci)
        for (int wt = 0; wt < wtiles; ++wt)
          if (!cfg.skip_empty_tile_groups ||
              stream->group(ci, wt).total_nnz(c.active_filters) > 0)
            ++total_steps;

      for (int oty = 0; oty < c.ofm_tiles_y; ++oty) {
        for (int otx = 0; otx < c.ofm_tiles_x; ++otx) {
          int step = 0;
          for (int ci = 0; ci < my_channels; ++ci) {
            for (int wt = 0; wt < wtiles; ++wt) {
              const pack::LaneTileGroup& group = stream->group(ci, wt);
              if (cfg.skip_empty_tile_groups &&
                  group.total_nnz(c.active_filters) == 0)
                continue;
              ++step;
              const int wty = wt / wtiles_x;
              const int wtx = wt % wtiles_x;

              WindowBundle bundle;
              bundle.stream = stream;
              bundle.group_index = ci * wtiles + wt;
              bundle.active = c.active_filters;
              bundle.end_tile = step == total_steps;

              // Preload the four contiguous IFM tiles (Fig. 4(a)): one tile
              // per cycle through port A; out-of-grid tiles read as zero.
              for (int t = 0; t < 4; ++t) {
                const int ity = oty + wty + t / 2;
                const int itx = otx + wtx + t % 2;
                pack::Tile tile{};
                if (ity < c.ifm_tiles_y && itx < c.ifm_tiles_x) {
                  co_await bank.read_port().grant();
                  tile = bank.read_tile(
                      c.ifm_base +
                      (ci * c.ifm_tiles_y + ity) * c.ifm_tiles_x + itx);
                  ++ctr.ifm_tile_reads;
                }
                bundle.window.set_tile(t, tile);
                co_await hls::clk(d);
              }

              // Weight bytes that spilled past the scratchpad must be
              // re-fetched through the same port at every position — the
              // deep-layer "unpacking overhead".
              const std::int64_t spill_begin =
                  std::max(group.byte_begin, scratch_bytes);
              const std::int64_t spill_bytes =
                  std::max<std::int64_t>(0, group.byte_end - spill_begin);
              const std::int64_t spill_words =
                  (spill_bytes + sim::kWordBytes - 1) / sim::kWordBytes;
              for (std::int64_t w = 0; w < spill_words; ++w) {
                co_await bank.read_port().grant();
                ++ctr.weight_word_reads;
                ++ctr.weight_spill_reads;
                co_await hls::clk(d);
              }

              co_await ctx.bundle_out->push(std::move(bundle));
            }
          }
          if (total_steps == 0) {
            WindowBundle marker;
            marker.empty_marker = true;
            marker.end_tile = true;
            marker.active = c.active_filters;
            co_await ctx.bundle_out->push(marker);
            co_await hls::clk(d);
          }
          if (ctx.position_barrier != nullptr)
            co_await ctx.position_barrier->arrive_and_wait();
          if (ctx.lane == 0) ++ctr.positions;
        }
      }
    } else {
      // PAD / POOL: generate (IFM tile, micro-op) streams for the Fig. 5
      // unit, one micro-op per cycle.
      const PadPoolInstr& p = cmd.instr.pp;
      const int my_channels =
          lane_channel_count(p.channels, ctx.lane, cfg.lanes);
      // An output tile's micro-ops are the same in every channel: build
      // them once per instruction.
      pool_steps.clear();
      if (my_channels > 0)
        for (int oty = 0; oty < p.ofm_tiles_y; ++oty)
          for (int otx = 0; otx < p.ofm_tiles_x; ++otx)
            pool_steps.push_back(make_pool_steps(p, oty, otx));
      pack::Tile held{};  // the unit's input register (mirrored here)
      for (int ci = 0; ci < my_channels; ++ci) {
        for (int oty = 0; oty < p.ofm_tiles_y; ++oty) {
          for (int otx = 0; otx < p.ofm_tiles_x; ++otx) {
            const int out_addr =
                p.ofm_base + (ci * p.ofm_tiles_y + oty) * p.ofm_tiles_x + otx;
            for (const PoolStep& st : pool_steps[static_cast<std::size_t>(
                     oty * p.ofm_tiles_x + otx)]) {
              PoolCmd pc;
              pc.op = st.op;
              pc.first = st.first;
              pc.last = st.last;
              pc.out_addr = out_addr;
              if (st.load) {
                if (st.in_ty >= 0 && st.in_ty < p.ifm_tiles_y &&
                    st.in_tx >= 0 && st.in_tx < p.ifm_tiles_x) {
                  co_await bank.read_port().grant();
                  held = bank.read_tile(
                      p.ifm_base +
                      (ci * p.ifm_tiles_y + st.in_ty) * p.ifm_tiles_x +
                      st.in_tx);
                  ++ctr.ifm_tile_reads;
                } else {
                  held = pack::Tile{};
                }
              }
              pc.in_tile = held;
              co_await ctx.pool_out->push(pc);
              co_await hls::clk(d);
            }
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Data-staging, inject half: one non-zero weight per filter per cycle.
// ---------------------------------------------------------------------------
hls::Kernel inject_kernel(InjectCtx ctx) {
  hls::Domain& d = *ctx.shared.domain;
  KernelCounters counters(*ctx.shared.counters);
  CounterSnapshot& ctr = counters.counts;
  for (;;) {
    const WindowBundle bundle = co_await ctx.bundle_in->pop();
    if (bundle.halt) {
      ConvCmd halt;
      halt.halt = true;
      co_await ctx.conv_out->push(halt);
      break;
    }
    if (bundle.empty_marker) {
      ConvCmd cmd;
      cmd.end_tile = true;
      ++ctr.weight_cmds;
      ctr.weight_bubbles += bundle.active;
      co_await ctx.conv_out->push(cmd);
      co_await hls::clk(d);
      continue;
    }
    const pack::LaneTileGroup& group = bundle.group();
    const int n = std::max(1, group.max_nnz(bundle.active));
    for (int k = 0; k < n; ++k) {
      ConvCmd cmd;
      if (k == 0) {
        cmd.load_window = true;
        cmd.window = bundle.window;
      }
      int bubbles = 0;
      for (int g = 0; g < bundle.active; ++g) {
        const auto& list = group.lists[static_cast<std::size_t>(g)];
        if (k < static_cast<int>(list.size())) {
          const pack::PackedEntry& entry = list[static_cast<std::size_t>(k)];
          cmd.w[static_cast<std::size_t>(g)] = static_cast<std::int8_t>(
              quant::sm8_decode(entry.value));
          cmd.offset[static_cast<std::size_t>(g)] = entry.offset;
        } else {
          ++bubbles;
        }
      }
      cmd.end_tile = bundle.end_tile && k == n - 1;
      ++ctr.weight_cmds;
      ctr.weight_bubbles += bubbles;
      co_await ctx.conv_out->push(cmd);
      co_await hls::clk(d);
    }
  }
}

// ---------------------------------------------------------------------------
// Convolution unit: 4 weights × 16 IFM values per cycle (Fig. 4(b)).
// ---------------------------------------------------------------------------
hls::Kernel conv_kernel(ConvCtx ctx) {
  hls::Domain& d = *ctx.shared.domain;
  const ArchConfig& cfg = *ctx.shared.cfg;
  KernelCounters counters(*ctx.shared.counters);
  CounterSnapshot& ctr = counters.counts;
  Window window{};
  for (;;) {
    const ConvCmd cmd = co_await ctx.cmd_in->pop();
    if (cmd.halt) break;
    if (cmd.load_window) window = cmd.window;
    int performed = 0;
    for (int g = 0; g < cfg.group; ++g) {
      ProductMsg msg;
      msg.end_tile = cmd.end_tile;
      msg.p = steer_multiply(window, cmd.w[static_cast<std::size_t>(g)],
                             cmd.offset[static_cast<std::size_t>(g)]);
      if (cmd.w[static_cast<std::size_t>(g)] != 0) ++performed;
      co_await ctx.product_out[static_cast<std::size_t>(g)]->push(msg);
    }
    ctr.macs_performed +=
        static_cast<std::int64_t>(performed) * pack::kTileSize;
    co_await hls::clk(d);
  }
}

// ---------------------------------------------------------------------------
// Accumulator unit: owns one OFM tile, output stationary, full precision.
// ---------------------------------------------------------------------------
hls::Kernel accum_kernel(AccumCtx ctx) {
  hls::Domain& d = *ctx.shared.domain;
  const int lanes = static_cast<int>(ctx.product_in.size());
  for (;;) {
    const AccCtrl ctrl = co_await ctx.ctrl_in->pop();
    if (ctrl.halt) break;
    for (std::int32_t p = 0; p < ctrl.positions; ++p) {
      pack::TileAcc acc;
      acc.v.fill(ctrl.bias);
      std::array<bool, kMaxLanes> lane_done{};
      int done = 0;
      // Merge product streams: up to one message per lane per cycle.  A lane
      // already past its end-of-tile marker is not polled, so products of
      // the next position wait in its FIFO (this, plus the position barrier
      // in the staging units, is the synchronization of §III-B.1).
      while (done < lanes) {
        for (int lane = 0; lane < lanes; ++lane) {
          if (lane_done[static_cast<std::size_t>(lane)]) continue;
          ProductMsg msg;
          if (ctx.product_in[static_cast<std::size_t>(lane)]->poll(msg)) {
            accumulate(acc, msg.p);
            if (msg.end_tile) {
              lane_done[static_cast<std::size_t>(lane)] = true;
              ++done;
            }
          }
        }
        if (done < lanes) co_await hls::poll_wait(d);
      }
      co_await ctx.tile_out->push(AccTileMsg{acc});
      co_await hls::clk(d);
    }
  }
}

// ---------------------------------------------------------------------------
// Write-to-memory unit: requantize + ReLU + write through port B.
// ---------------------------------------------------------------------------
hls::Kernel write_kernel(WriteCtx ctx) {
  hls::Domain& d = *ctx.shared.domain;
  KernelCounters counters(*ctx.shared.counters);
  CounterSnapshot& ctr = counters.counts;
  sim::SramBank& bank = *ctx.bank;
  for (;;) {
    const WriteCtrl ctrl = co_await ctx.ctrl_in->pop();
    if (ctrl.halt) break;
    if (ctrl.is_conv) {
      for (std::int32_t p = 0; p < ctrl.positions; ++p) {
        const AccTileMsg msg = co_await ctx.acc_in->pop();
        if (ctrl.active) {
          const pack::Tile tile = requantize_tile(msg.acc, ctrl.requant);
          const int ty = p / ctrl.ofm_tiles_x;
          const int tx = p % ctrl.ofm_tiles_x;
          const int addr =
              ctrl.ofm_base +
              (ctrl.channel_slot * ctrl.ofm_tiles_y + ty) * ctrl.ofm_tiles_x +
              tx;
          co_await bank.write_port().grant();
          bank.write_tile(addr, tile);
          ++ctr.ofm_tile_writes;
        }
        co_await hls::clk(d);
      }
    } else {
      for (std::int32_t i = 0; i < ctrl.count; ++i) {
        const PoolOutMsg msg = co_await ctx.pool_in->pop();
        co_await bank.write_port().grant();
        bank.write_tile(msg.out_addr, msg.tile);
        ++ctr.ofm_tile_writes;
        co_await hls::clk(d);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Padding/pooling unit (Fig. 5): 4 MAX units + 16 output muxes per cycle.
// ---------------------------------------------------------------------------
hls::Kernel pool_pad_kernel(PoolPadCtx ctx) {
  hls::Domain& d = *ctx.shared.domain;
  KernelCounters counters(*ctx.shared.counters);
  CounterSnapshot& ctr = counters.counts;
  pack::Tile out_reg{};
  for (;;) {
    const PoolCmd cmd = co_await ctx.cmd_in->pop();
    if (cmd.halt) break;
    if (cmd.first) out_reg = pack::Tile{};
    apply_pool_pad(cmd.op, cmd.in_tile, out_reg);
    ++ctr.pool_ops;
    if (cmd.last) {
      PoolOutMsg msg;
      msg.tile = out_reg;
      msg.out_addr = cmd.out_addr;
      co_await ctx.out->push(msg);
    }
    co_await hls::clk(d);
  }
}

}  // namespace tsca::core
