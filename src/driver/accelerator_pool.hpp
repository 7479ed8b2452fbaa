// Host-parallel simulation pool.
//
// The paper's 512-opt configuration reaches its throughput by running
// multiple accelerator instances concurrently on independent stripes
// (§IV-D).  The serial Runtime models those instances on one Accelerator
// object, so simulator wall-clock scales with total work.  AcceleratorPool
// gives the simulator the same parallelism the hardware has: N independent
// Accelerator/Dram/DmaEngine contexts, each owned by one std::thread worker,
// fed from a shared work queue (an atomic index over the unit range).
//
// Units of work (stripes, images) are independent by construction, and
// every context executes a unit through exactly the same code path as the
// serial Runtime (driver/stripe_exec.hpp), so merged results are
// bit-identical to serial execution regardless of which worker ran which
// unit.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/accelerator.hpp"
#include "core/fastpath.hpp"
#include "sim/dma.hpp"
#include "sim/dram.hpp"

namespace tsca::driver {

class NetworkProgram;

struct PoolOptions {
  int workers = 1;                       // worker threads == contexts
  std::size_t dram_bytes = 64u << 20;    // per-context staging DDR
};

class AcceleratorPool {
 public:
  // One accelerator instance's host-side state.  Workers never share a
  // context; context i belongs to worker i for the lifetime of the pool.
  struct Context {
    Context(const core::ArchConfig& cfg, std::size_t dram_bytes)
        : acc(cfg), dram(dram_bytes), dma(dram) {}
    core::Accelerator acc;
    sim::Dram dram;
    sim::DmaEngine dma;
    std::uint64_t ddr_cursor = 0;  // staging bump allocator
    // NetworkProgram residency (see driver/stripe_exec.hpp ExecCtx): stamp
    // of the program whose weight image is resident at DDR address 0
    // (0 = none) and the first byte past it (where staging may begin).
    std::uint64_t staged_stamp = 0;
    std::uint64_t ddr_floor = 0;
    int worker = 0;                // index of the owning worker thread
    // Serving timeline position (simulated cycles) for tracing: batches a
    // Server worker executes lay their spans end to end on its tracks.
    std::uint64_t trace_clock = 0;
    // Fast-path conv working set, reused across every stripe and request
    // this context executes.  Safe because a context never runs two units
    // concurrently (one worker owns it for the pool's lifetime).
    core::FastScratch fast_scratch;
  };

  using Task = std::function<void(Context&, std::size_t)>;

  AcceleratorPool(const core::ArchConfig& cfg, PoolOptions options = {});
  ~AcceleratorPool();
  AcceleratorPool(const AcceleratorPool&) = delete;
  AcceleratorPool& operator=(const AcceleratorPool&) = delete;

  int workers() const { return static_cast<int>(contexts_.size()); }
  const core::ArchConfig& config() const { return cfg_; }
  Context& context(int i) { return *contexts_[static_cast<std::size_t>(i)]; }

  // Runs fn(context, index) for every index in [0, n), distributing indices
  // over the workers through a shared queue; blocks until all are done.
  // Rethrows the first task exception (remaining indices are abandoned).
  // Reentrant calls are not allowed (tasks must not call parallel_for).
  void parallel_for(std::size_t n, const Task& fn);

 private:
  void worker_loop(int worker);

  core::ArchConfig cfg_;
  std::vector<std::unique_ptr<Context>> contexts_;
  std::vector<std::thread> threads_;

  // Job state, guarded by m_ except next_ (claimed lock-free).
  std::mutex m_;
  std::condition_variable work_cv_;   // workers wait for a new job
  std::condition_variable done_cv_;   // parallel_for waits for completion
  std::uint64_t generation_ = 0;      // bumped per job
  std::size_t job_n_ = 0;
  const Task* job_ = nullptr;
  std::atomic<std::size_t> next_{0};  // next unclaimed unit
  std::atomic<bool> abort_{false};    // a task threw; stop claiming units
  int active_ = 0;                    // workers still inside the current job
  std::exception_ptr error_;
  bool shutdown_ = false;
};

// Makes `program`'s weight image resident in `ctx`'s DDR (a host write — no
// DMA statistics) and fences the context's bump allocator above it; no-op
// when the image is already staged.  Shared by PoolRuntime (every pool
// context) and the serving layer (every Server worker context).
void stage_program_in_context(AcceleratorPool::Context& ctx,
                              const NetworkProgram& program);

}  // namespace tsca::driver
