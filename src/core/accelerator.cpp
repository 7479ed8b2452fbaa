#include "core/accelerator.hpp"

#include <string>

#include "core/kernels.hpp"

namespace tsca::core {

Accelerator::Accelerator(ArchConfig cfg) : cfg_(std::move(cfg)) {
  cfg_.validate();
  banks_.reserve(static_cast<std::size_t>(cfg_.lanes));
  for (int lane = 0; lane < cfg_.lanes; ++lane)
    banks_.push_back(std::make_unique<sim::SramBank>(
        "bank" + std::to_string(lane), cfg_.bank_words));
}

sim::SramBank& Accelerator::bank(int lane) {
  TSCA_CHECK(lane >= 0 && lane < num_banks(), "bank " << lane);
  return *banks_[static_cast<std::size_t>(lane)];
}

BatchStats Accelerator::run_batch(const std::vector<Instruction>& instructions,
                                  hls::Mode mode, hls::SystemOptions options) {
  for (const Instruction& instr : instructions)
    validate_instruction(instr, cfg_);

  hls::System sys(mode, options);
  for (auto& bank : banks_) bank->bind(sys.scheduler());

  const int lanes = cfg_.lanes;
  const int group = cfg_.group;
  const int depth = cfg_.fifo_depth;

  // FIFOs (the edges of Fig. 3).
  auto& host_q = sys.make_fifo<Instruction>(
      "host_q", static_cast<int>(instructions.size()) + 1);
  std::vector<hls::Fifo<FetchCmd>*> fetch_cmd;
  std::vector<hls::Fifo<WindowBundle>*> bundles;
  std::vector<hls::Fifo<ConvCmd>*> conv_cmds;
  std::vector<hls::Fifo<AccCtrl>*> acc_ctrl;
  std::vector<hls::Fifo<AccTileMsg>*> acc_out;
  std::vector<hls::Fifo<WriteCtrl>*> write_ctrl;
  std::vector<hls::Fifo<PoolCmd>*> pool_cmds;
  std::vector<hls::Fifo<PoolOutMsg>*> pool_out;
  std::vector<std::vector<hls::Fifo<ProductMsg>*>> products(
      static_cast<std::size_t>(lanes));
  for (int l = 0; l < lanes; ++l) {
    const std::string suffix = std::to_string(l);
    fetch_cmd.push_back(&sys.make_fifo<FetchCmd>("fetch_cmd" + suffix, 4));
    bundles.push_back(
        &sys.make_fifo<WindowBundle>("bundles" + suffix, depth));
    conv_cmds.push_back(&sys.make_fifo<ConvCmd>("conv_cmd" + suffix, depth));
    write_ctrl.push_back(&sys.make_fifo<WriteCtrl>("write_ctrl" + suffix, 4));
    pool_cmds.push_back(&sys.make_fifo<PoolCmd>("pool_cmd" + suffix, depth));
    pool_out.push_back(&sys.make_fifo<PoolOutMsg>("pool_out" + suffix, depth));
    for (int g = 0; g < group; ++g)
      products[static_cast<std::size_t>(l)].push_back(
          &sys.make_fifo<ProductMsg>(
              "prod" + suffix + "_" + std::to_string(g), depth));
  }
  for (int g = 0; g < group; ++g) {
    const std::string suffix = std::to_string(g);
    acc_ctrl.push_back(&sys.make_fifo<AccCtrl>("acc_ctrl" + suffix, 4));
    acc_out.push_back(&sys.make_fifo<AccTileMsg>("acc_out" + suffix, 4));
  }
  hls::Barrier* barrier = nullptr;
  if (cfg_.position_barrier && lanes > 1)
    barrier = &sys.make_barrier("position", lanes);

  SharedCtx shared{&sys.domain(), &cfg_, &counters_};

  // Kernels (20 units in the paper's full configuration, plus the
  // controller and the split data-staging halves).
  {
    ControllerCtx ctx;
    ctx.shared = shared;
    ctx.host_q = &host_q;
    ctx.fetch_cmd = fetch_cmd;
    ctx.acc_ctrl = acc_ctrl;
    ctx.write_ctrl = write_ctrl;
    sys.spawn("controller", controller_kernel(std::move(ctx)));
  }
  for (int l = 0; l < lanes; ++l) {
    const std::string suffix = std::to_string(l);
    {
      FetchCtx ctx;
      ctx.shared = shared;
      ctx.lane = l;
      ctx.bank = banks_[static_cast<std::size_t>(l)].get();
      ctx.streams = &streams_;
      ctx.cmd_in = fetch_cmd[static_cast<std::size_t>(l)];
      ctx.bundle_out = bundles[static_cast<std::size_t>(l)];
      ctx.pool_out = pool_cmds[static_cast<std::size_t>(l)];
      ctx.position_barrier = barrier;
      sys.spawn("fetch" + suffix, fetch_kernel(std::move(ctx)));
    }
    {
      InjectCtx ctx;
      ctx.shared = shared;
      ctx.lane = l;
      ctx.bundle_in = bundles[static_cast<std::size_t>(l)];
      ctx.conv_out = conv_cmds[static_cast<std::size_t>(l)];
      sys.spawn("inject" + suffix, inject_kernel(std::move(ctx)));
    }
    {
      ConvCtx ctx;
      ctx.shared = shared;
      ctx.lane = l;
      ctx.cmd_in = conv_cmds[static_cast<std::size_t>(l)];
      ctx.product_out = products[static_cast<std::size_t>(l)];
      sys.spawn("conv" + suffix, conv_kernel(std::move(ctx)));
    }
    {
      WriteCtx ctx;
      ctx.shared = shared;
      ctx.lane = l;
      ctx.bank = banks_[static_cast<std::size_t>(l)].get();
      ctx.ctrl_in = write_ctrl[static_cast<std::size_t>(l)];
      ctx.acc_in = acc_out[static_cast<std::size_t>(l)];
      ctx.pool_in = pool_out[static_cast<std::size_t>(l)];
      sys.spawn("write" + suffix, write_kernel(std::move(ctx)));
    }
    {
      PoolPadCtx ctx;
      ctx.shared = shared;
      ctx.lane = l;
      ctx.cmd_in = pool_cmds[static_cast<std::size_t>(l)];
      ctx.out = pool_out[static_cast<std::size_t>(l)];
      sys.spawn("poolpad" + suffix, pool_pad_kernel(std::move(ctx)));
    }
  }
  for (int g = 0; g < group; ++g) {
    AccumCtx ctx;
    ctx.shared = shared;
    ctx.slot = g;
    ctx.ctrl_in = acc_ctrl[static_cast<std::size_t>(g)];
    ctx.tile_out = acc_out[static_cast<std::size_t>(g)];
    for (int l = 0; l < lanes; ++l)
      ctx.product_in.push_back(
          products[static_cast<std::size_t>(l)][static_cast<std::size_t>(g)]);
    sys.spawn("accum" + std::to_string(g), accum_kernel(std::move(ctx)));
  }

  // Enqueue the program before starting (the host's instruction window).
  for (const Instruction& instr : instructions) {
    const bool ok = host_q.seed(instr);
    TSCA_CHECK(ok, "host queue overflow");
  }
  {
    const bool ok = host_q.seed(Instruction::halt());
    TSCA_CHECK(ok, "host queue overflow");
  }

  const hls::System::RunResult result = sys.run();

  BatchStats stats;
  stats.cycles = result.cycles;
  stats.kernel_activity = result.activity;
  stats.counters = snapshot(counters_);
  auto add_fifo = [&stats](const hls::FifoStats& fs) {
    stats.fifo_push_stalls += fs.push_stalls;
    stats.fifo_pop_stalls += fs.pop_stalls;
  };
  add_fifo(host_q.stats());
  for (int l = 0; l < lanes; ++l) {
    add_fifo(fetch_cmd[static_cast<std::size_t>(l)]->stats());
    add_fifo(bundles[static_cast<std::size_t>(l)]->stats());
    add_fifo(conv_cmds[static_cast<std::size_t>(l)]->stats());
    add_fifo(write_ctrl[static_cast<std::size_t>(l)]->stats());
    add_fifo(pool_cmds[static_cast<std::size_t>(l)]->stats());
    add_fifo(pool_out[static_cast<std::size_t>(l)]->stats());
    for (int g = 0; g < group; ++g)
      add_fifo(products[static_cast<std::size_t>(l)]
                       [static_cast<std::size_t>(g)]
                           ->stats());
    stats.port_stalls +=
        banks_[static_cast<std::size_t>(l)]->read_port().stall_cycles();
  }
  for (int g = 0; g < group; ++g) {
    add_fifo(acc_ctrl[static_cast<std::size_t>(g)]->stats());
    add_fifo(acc_out[static_cast<std::size_t>(g)]->stats());
  }
  return stats;
}

}  // namespace tsca::core
