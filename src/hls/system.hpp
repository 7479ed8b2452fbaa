// System — owns kernels, FIFOs and barriers, and runs them under one of the
// two execution modes.
//
//   System sys(Mode::kThread);         // pthreads producer/consumer program
//   System sys(Mode::kCycle);          // cycle-accurate hardware model
//   auto& q = sys.make_fifo<int>("q", 16);
//   sys.spawn("producer", producer_kernel(sys.domain(), q));
//   sys.spawn("consumer", consumer_kernel(sys.domain(), q));
//   auto result = sys.run();           // result.cycles valid in cycle mode
//
// Thread mode runs every kernel on its own std::thread with a watchdog that
// poisons all blocking primitives when the system stops making progress, so
// accidental deadlocks fail fast instead of hanging the test suite.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "hls/barrier.hpp"
#include "hls/cycle_engine.hpp"
#include "hls/fifo.hpp"
#include "hls/kernel.hpp"

namespace tsca::hls {

enum class Mode { kThread, kCycle };

struct SystemOptions {
  // Cycle mode: hard cap on simulated cycles.
  std::uint64_t max_cycles = 500'000'000;
  // Thread mode: poison everything after this long without progress.
  int watchdog_ms = 10'000;
  // Cycle mode: record per-kernel resume counts (≈ busy cycles).
  bool track_utilization = false;
  // Cycle mode: when set, the engine emits one span per kernel on track
  // "<trace_scope><kernel name>" covering [trace_base_cycle, + run cycles)
  // with busy/stall cycle args.  Implies resume tracking.
  obs::Recorder* trace = nullptr;
  std::string trace_scope = {};  // NSDMI: keeps designated inits warning-free
  std::uint64_t trace_base_cycle = 0;
};

class System : public ProgressSink {
 public:
  explicit System(Mode mode, SystemOptions options = {});
  ~System() override = default;
  System(const System&) = delete;
  System& operator=(const System&) = delete;

  Mode mode() const { return mode_; }
  Domain& domain();
  // Null in thread mode — sim-layer components (SRAM ports) use this to
  // decide whether to model contention.
  CycleScheduler* scheduler() {
    return mode_ == Mode::kCycle ? engine_.get() : nullptr;
  }

  template <typename T>
  Fifo<T>& make_fifo(std::string name, int capacity) {
    auto fifo = std::make_shared<Fifo<T>>(std::move(name), capacity,
                                          scheduler(), this);
    if (mode_ == Mode::kThread) poisonables_.push_back(fifo.get());
    Fifo<T>& ref = *fifo;
    storage_.push_back(std::move(fifo));
    return ref;
  }

  Barrier& make_barrier(std::string name, int participants);

  void spawn(std::string name, Kernel kernel);

  struct RunResult {
    std::uint64_t cycles = 0;  // 0 in thread mode
    // Per-kernel busy-cycle estimates (cycle mode with track_utilization).
    std::vector<CycleEngine::KernelActivity> activity;
  };

  // Runs all spawned kernels to completion.  Rethrows the first kernel error;
  // throws DeadlockError when the watchdog (thread) or the scheduler (cycle)
  // detects a stall.
  RunResult run();

  // --- ProgressSink ---
  void note_progress() override {
    progress_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  RunResult run_threads();

  Mode mode_;
  SystemOptions options_;
  std::unique_ptr<CycleEngine> engine_;
  std::unique_ptr<ThreadDomain> thread_domain_;
  std::vector<std::shared_ptr<void>> storage_;
  std::vector<Poisonable*> poisonables_;
  std::vector<std::pair<std::string, Kernel>> kernels_;
  std::atomic<std::uint64_t> progress_{0};
  bool ran_ = false;
};

}  // namespace tsca::hls
