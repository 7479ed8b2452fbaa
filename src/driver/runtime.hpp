// Host runtime — the software on the embedded ARM (paper §IV-C).
//
// Owns the end-to-end flow: quantized weights are packed offline (§III-B);
// per layer the runtime stages stripes into DDR, DMAs them into the
// accelerator's banks, submits instruction batches, and collects results and
// statistics.  Fully-connected layers and softmax run on the host, as in the
// paper.
//
// With `instances > 1` in the ArchConfig (512-opt), stripes are distributed
// round-robin over the instances; each instance is modelled by the same
// Accelerator object run per stripe, and a layer's elapsed cycles are the
// maximum over instances of their per-instance totals (the instances work
// concurrently on separate stripes, §IV-D).
#pragma once

#include <atomic>
#include <exception>
#include <string>
#include <vector>

#include "core/accelerator.hpp"
#include "core/fastpath.hpp"
#include "driver/compiler.hpp"
#include "driver/program.hpp"
#include "nn/network.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pack/tile.hpp"
#include "quant/quantize.hpp"
#include "sim/dma.hpp"

namespace tsca::driver {
struct ExecCtx;
}

namespace tsca::driver {

// How the runtime executes accelerator layers.  kCycle / kThread run the
// simulation engines (hls::Mode); kFast runs the functional fast path
// (core/fastpath.hpp): bit-identical outputs, with cycle counts *predicted*
// by PerfModel instead of measured (LayerRun::cycles_predicted).
enum class ExecMode { kCycle, kThread, kFast };

const char* exec_mode_name(ExecMode mode);

// The simulation engine backing an execution mode (fast-path layers never
// reach an engine; anything that does falls back to the cycle engine).
inline hls::Mode engine_mode(ExecMode mode) {
  return mode == ExecMode::kThread ? hls::Mode::kThread : hls::Mode::kCycle;
}

struct RuntimeOptions {
  ExecMode mode = ExecMode::kCycle;
  bool keep_activations = false;  // return every layer's map, per image
  // Observability (both null by default = disabled, near-zero overhead).
  // `trace` records per-layer / per-stripe / per-batch spans and DMA
  // transfers in simulated cycles; `metrics` aggregates counters and layer
  // latency histograms.  trace_scope prefixes every track name (the pool
  // runtime sets "worker<i>/" per serving worker); trace_kernels adds
  // per-kernel busy/stall spans inside each batch (cycle mode).
  obs::Recorder* trace = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  std::string trace_scope = {};  // NSDMI: keeps designated inits warning-free
  bool trace_kernels = false;
  // Cooperative cancellation: when non-null, run_network_batch polls the
  // flag between steps and aborts by throwing RequestCancelled.  The
  // serving layer uses this to stop in-flight requests without waiting for a
  // whole network pass to drain.
  const std::atomic<bool>* cancel = nullptr;
  // Per-run simulated-cycle budget: when non-zero, run_network_batch throws
  // BudgetExceeded once the run has advanced more than this many cycles
  // past its starting trace clock (checked between steps, like `cancel`).
  // The serving layer derives it from per-request execution budgets so a
  // pathological request cannot hog a worker.
  std::uint64_t cycle_budget = 0;
};

// Thrown by run_network_batch when RuntimeOptions::cancel was raised
// mid-execution.  Completed layers' side effects (counters, DMA statistics
// in the context) remain — the request's outputs are simply never produced.
class RequestCancelled : public std::exception {
 public:
  const char* what() const noexcept override { return "request cancelled"; }
};

// Thrown between steps once a run has spent more simulated cycles than
// RuntimeOptions::cycle_budget.  Like RequestCancelled, completed layers'
// side effects (trace spans, counters, the advanced trace clock) remain.
class BudgetExceeded : public Error {
 public:
  BudgetExceeded() : Error("cycle budget exceeded") {}
};

// Per-layer execution record.
struct LayerRun {
  std::string name;
  nn::LayerKind kind = nn::LayerKind::kPad;
  bool on_accelerator = false;
  std::uint64_t cycles = 0;  // accelerator cycles (max over instances)
  // True when `cycles` (and the work counters) came from PerfModel rather
  // than a simulation engine — i.e. the layer ran in ExecMode::kFast.
  bool cycles_predicted = false;
  std::int64_t macs = 0;     // dense MACs (conv layers)
  int stripes = 0;
  int batches = 0;
  core::CounterSnapshot counters;  // deltas for this layer
  sim::DmaStats dma;
  // Host fast-path execution statistics (kFast conv layers only): gathered
  // regions and MAC tile-ops elided by the activation zero-skip.  Purely a
  // host-side account — the PerfModel counters above still charge the
  // modeled hardware for every MAC.
  core::FastConvStats fast;
  // Host wall-clock spent executing this step (microseconds; for fused
  // PAD+CONV steps the whole fusion is charged to the CONV record).  Unlike
  // `cycles` this measures the simulator/fast-path itself, not the modeled
  // hardware — it is what the fast-path perf work optimizes.
  std::int64_t host_wall_us = 0;

  // Clears every statistics field, keeping the caller-assigned name/kind.
  // Runtime entry points call this on entry so a LayerRun reused across
  // calls cannot accumulate stale batches/counters/DMA totals.
  void reset_stats() {
    on_accelerator = false;
    cycles = 0;
    cycles_predicted = false;
    macs = 0;
    stripes = 0;
    batches = 0;
    counters = core::CounterSnapshot{};
    dma = sim::DmaStats{};
    fast = core::FastConvStats{};
    host_wall_us = 0;
  }
};

// One image's outputs from a network execution.
struct NetworkRun {
  std::vector<std::int8_t> logits;       // final flat activation (if any)
  nn::FeatureMapI8 final_fm;             // final feature map (if not flat)
  bool flat_output = false;
  // Every layer's output map up to the flatten, when
  // RuntimeOptions::keep_activations is set (a fused PAD+CONV step yields
  // the padded map it kept on chip, then the conv output).
  std::vector<nn::FeatureMapI8> activations;
};

// One execution of a compiled network over same-shaped inputs.  Each image's
// outputs are bit-identical to running it as a batch of one; statistics are
// aggregated per layer over the whole batch (a conv layer's cycles/counters/
// DMA cover all images, with each weight chunk staged once — the
// amortization dynamic batching buys).  A batch of one moves exactly the
// single-image DMA: its input stripes are staged once per stripe.
struct BatchNetworkRun {
  std::vector<LayerRun> layers;
  std::vector<NetworkRun> requests;
};

class Runtime {
 public:
  // How many images one batch-major core::fast_conv call carries
  // (run_conv_batch in ExecMode::kFast): each gathered region then feeds
  // kFastBatchLanes·16 int8 lanes, so the weight walk, window loads and
  // dispatch amortize across the group while the accumulator working set
  // (out_c · lanes · 64 B) stays cache-resident.
  static constexpr int kFastBatchLanes = 8;

  Runtime(core::Accelerator& accelerator, sim::Dram& dram,
          sim::DmaEngine& dma, RuntimeOptions options = {});
  virtual ~Runtime() = default;
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // --- Program execution (primary path) -------------------------------
  //
  // These entry points consume precompiled artifacts (driver/program.hpp):
  // no packing, planning, or fusion decisions happen on the request path.
  // ExecMode::kFast refuses an artifact its compiler did not finish (no
  // decoded weights, predictions or fast pool plans) instead of deriving
  // them per call.  Each entry point picks kFast or the simulation engine
  // itself; the pool runtime (pool_runtime.hpp) dispatches the stripes onto
  // worker threads instead of the serial loops here.

  // Executes a planned PAD or POOL layer.
  virtual pack::TiledFm run_pad_pool(const pack::TiledFm& input,
                                     const PoolPlan& plan, LayerRun& run);

  // Executes one compiled convolution over a batch of already-padded,
  // same-shaped maps, replacing `fms` with the outputs in place (the input
  // maps' storage is recycled through the runtime's feature-map pool).  One
  // striping/chunking plan serves every image; with more than one image each
  // weight chunk is staged once and reused across the batch (the
  // embedded-inference batching the paper's driver would do for throughput
  // workloads), while a lone image stays in the banks across its stripe's
  // chunks.  Statistics in `run` cover the whole batch.
  void run_conv_batch(std::vector<pack::TiledFm>& fms, const ConvProgram& conv,
                      LayerRun& run);

  // Executes a compiled FC-as-1x1-conv layer (compile_fc_conv) as a batch of
  // one and returns the logits.
  std::vector<std::int8_t> run_fc_as_conv(const std::vector<std::int8_t>& input,
                                          const ConvProgram& fc_conv,
                                          LayerRun& run);

  // Executes PAD and the following convolution as one fusion per image, the
  // padded map living only on chip, against a compile_fused_pad_conv result
  // (`conv.plan` is unused — fused layers are unstriped).  Replaces `fms`
  // with the conv outputs in place, like run_conv_batch; pad_run/conv_run
  // aggregate the batch (DMA and counters are charged to conv_run).
  void run_fused_pad_conv_batch(std::vector<pack::TiledFm>& fms,
                                const ConvProgram& conv,
                                const FusedPadConvLayout& layout,
                                LayerRun& pad_run, LayerRun& conv_run);

  // Executes a compiled network over a batch of same-shaped inputs in one
  // pass — the one network executor; a single image runs as a batch of one.
  // Pad/conv/pool run on the accelerator, flatten/FC/softmax on the host.
  // Conv layers go through run_conv_batch, pad/pool layers loop per image.
  // Stages the program's weight image into DDR on first use
  // (ensure_program_staged); any number of executions share the same const
  // program.  See BatchNetworkRun for the statistics contract.
  BatchNetworkRun run_network_batch(const NetworkProgram& program,
                                    const std::vector<nn::FeatureMapI8>& inputs);

  // Pointer form — the zero-copy warm path.  The serving layer batches
  // requests whose inputs live inside queued Pending objects; staging `n`
  // pointers instead of `n` feature-map copies keeps request payloads
  // untouched (they are neither copied nor moved).  Bit-identical to the
  // vector form.
  BatchNetworkRun run_network_batch(const NetworkProgram& program,
                                    const nn::FeatureMapI8* const* inputs,
                                    std::size_t n);

  // Makes `program`'s weight image resident in this runtime's DDR (a host
  // write — no DMA statistics), so weight chunks DMA straight from it.
  // No-op when already resident.  The pool runtime stages every worker
  // context.
  virtual void ensure_program_staged(const NetworkProgram& program);

  // Marks a program image something else already wrote to this DDR as
  // resident (serving workers hand their staged contexts to their runtimes
  // this way, so batches never re-write the image).
  void adopt_staged_program(std::uint64_t stamp, std::uint64_t ddr_floor);

  // Simulated-cycle timeline position for tracing: each accelerator layer
  // advances it by the layer's cycles, so successive layer spans lay end to
  // end.  Serving workers carry it across batches in their context.
  std::uint64_t trace_clock() const { return trace_clock_; }
  void set_trace_clock(std::uint64_t cycles) { trace_clock_ = cycles; }

  // Per-batch option updates for a Runtime reused across batches (the
  // serving workers keep one Runtime alive instead of constructing one per
  // batch): the cycle budget and cancellation flag are the only options
  // that legitimately change between batches.
  void set_cycle_budget(std::uint64_t budget) {
    options_.cycle_budget = budget;
  }
  void set_cancel(const std::atomic<bool>* cancel) {
    options_.cancel = cancel;
  }

  // Pre-sizes every reusable buffer — the fast-path conv scratch and the
  // feature-map recycle pool — to the program's largest layer over batches
  // of up to `max_batch` images, so even the first warm request after
  // staging allocates nothing.  Idempotent and monotonic (never shrinks);
  // call per program adopted into a long-lived runtime.
  void reserve_warm_scratch(const NetworkProgram& program, int max_batch);

  // Bytes held by the reusable warm-path storage (scratch + recycled maps):
  // the high-water figure behind the zero-allocation steady state.
  std::size_t warm_scratch_bytes() const;

 protected:
  // Per-layer trace handles: one compute track plus one ".dma" sibling per
  // execution unit (accelerator instance or pool worker), cursors rewound to
  // the layer's start.  Empty (bool false) when tracing is disabled.
  struct LayerTracer {
    std::vector<obs::Track*> compute;
    std::vector<obs::Track*> dma;
    explicit operator bool() const { return !compute.empty(); }
  };
  LayerTracer begin_layer_trace(int units, const char* unit_prefix);
  // Layer epilogue: records the layer span (duration == run.cycles) on the
  // "<scope>layers" track, bumps the metrics registry, and advances the
  // trace clock.  Called by every accelerator-layer entry point.
  void finish_layer(const LayerRun& run);
  // Execution context over this runtime's accelerator/DDR/DMA, residency
  // fields included.
  ExecCtx exec_ctx();
  // ExecMode::kFast pad/pool body (core/fastpath.hpp executor + PerfModel
  // statistics); run_pad_pool branches here before touching the simulator.
  pack::TiledFm fast_pad_pool_layer(const pack::TiledFm& input,
                                    const PoolPlan& plan, LayerRun& run);
  // Engine body of run_conv_batch: runs the stripe schedule for every image
  // of `inputs` on the simulation engine, writing the pre-shaped `outputs`,
  // and fills run.cycles/batches/counters/dma.  The serial body walks the
  // stripes on this runtime's accelerator; PoolRuntime fans (image × stripe)
  // units out across its workers, with bit-identical statistics.
  virtual void engine_exec_conv(const std::vector<pack::TiledFm>& inputs,
                                const ConvProgram& conv,
                                std::vector<pack::TiledFm>& outputs,
                                LayerRun& run);
  // Fast executor hooks.  The serial bodies below run one full-height
  // batch-major call (conv) / a serial stripe loop (pad-pool); PoolRuntime
  // overrides them to fan the plan's stripe row-bands out across its
  // workers.  Bands write disjoint output tiles and per-band stats are
  // summed in stripe index order, so outputs *and* statistics are
  // bit-identical to the serial bodies for any worker count.
  virtual void fast_exec_conv(const pack::TiledFm* const* inputs, int batch,
                              const core::FastConvWeights& fw,
                              const ConvProgram& conv,
                              pack::TiledFm* const* outputs,
                              core::FastConvStats& stats);
  virtual void fast_exec_pool(const pack::TiledFm& input, const PoolPlan& plan,
                              pack::TiledFm& output);
  // Host FC, batch-major: output-row outer, image inner, so each weight row
  // is streamed from memory once per batch instead of once per image (the
  // FC layers are memory-bound — the weight matrix dwarfs every
  // activation).  SimdBackend dot/dot4 per row; bit-identical to nn::fc_i8
  // in every ExecMode, since int32 accumulation wraps mod 2^32 in any
  // order.  Sizes `outs` (recycling element capacity) and fills it; `outs`
  // must not alias `ins`.
  void fast_fc_batch(const std::vector<std::vector<std::int8_t>>& ins,
                     const FcProgram& fc,
                     std::vector<std::vector<std::int8_t>>& outs);
  // Sizes a feature-map vector to `n` elements, moving removed maps'
  // storage into fm_pool_ and reusing pooled storage for added ones — the
  // vector and its maps stop allocating once they have seen their largest
  // batch.
  void size_fm_vec(std::vector<pack::TiledFm>& v, std::size_t n);
  core::Accelerator& acc_;
  sim::Dram& dram_;
  sim::DmaEngine& dma_;
  RuntimeOptions options_;
  std::uint64_t ddr_cursor_ = 0;  // bump allocator for staging buffers
  std::uint64_t trace_clock_ = 0;
  // Program residency in dram_ (see ExecCtx): stamp of the resident
  // NetworkProgram image (0 = none), its base address, and the first byte
  // the bump allocator may use.
  std::uint64_t resident_stamp_ = 0;
  std::uint64_t program_base_ = 0;
  std::uint64_t ddr_floor_ = 0;
  // --- Warm-path reusable storage (DESIGN.md §15) ---------------------
  // Everything below persists across run_network_batch calls on a reused
  // Runtime and only ever grows: once the runtime has executed its largest
  // batch through its largest program, the warm path touches none of the
  // system allocator.  A Runtime is single-threaded by contract, so none of
  // this needs locking; stripe-parallel fan-out uses the per-pool-context
  // scratches instead (AcceleratorPool::Context::fast_scratch).
  // Metric handles resolved once at construction (finish_layer runs per
  // layer per batch; looking names up there would put a heap-allocated
  // std::string key on the zero-allocation warm path).  All null when
  // options_.metrics is null.
  struct RunMetrics {
    obs::Counter* layers = nullptr;
    obs::Counter* accel_cycles = nullptr;
    obs::Counter* batches = nullptr;
    obs::Counter* stripes = nullptr;
    obs::Counter* macs = nullptr;
    obs::Counter* dma_bytes_to_fpga = nullptr;
    obs::Counter* dma_bytes_to_dram = nullptr;
    obs::Counter* predicted_layers = nullptr;
    obs::Counter* fast_regions = nullptr;
    obs::Counter* fast_regions_zero = nullptr;
    obs::Counter* fast_mac_tiles = nullptr;
    obs::Counter* fast_mac_tiles_skipped = nullptr;
    obs::Histogram* layer_cycles = nullptr;
  };
  RunMetrics rm_;
  core::FastScratch fast_scratch_;          // fast conv working set
  std::vector<pack::TiledFm> fm_pool_;      // recycled feature-map storage
  std::vector<pack::TiledFm> batch_out_fms_;  // layer output staging
  std::vector<pack::TiledFm> batch_fms_;      // run_network_batch currents
  std::vector<std::vector<std::int8_t>> batch_flats_;   // flat activations
  std::vector<std::vector<std::int8_t>> batch_flats2_;  // FC double buffer
  std::vector<std::vector<pack::TiledFm>> batch_slots_;  // residual slots
  std::vector<const pack::TiledFm*> scratch_ins_;   // lane-group pointers
  std::vector<pack::TiledFm*> scratch_outs_;
};

// Stripe (de)serialization between tiled feature maps and bank images:
// channels c ≡ lane (mod lanes), tile rows [row0, row0+rows), word layout
// [channel slot][tile row][tile col].
std::vector<std::uint8_t> bank_stripe_bytes(const pack::TiledFm& fm, int lane,
                                            int lanes, int row0, int rows);
void unpack_bank_stripe(pack::TiledFm& fm, const std::vector<std::uint8_t>& bytes,
                        int lane, int lanes, int row0, int rows);

}  // namespace tsca::driver
