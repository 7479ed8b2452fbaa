// Cycle-accurate scheduler.
//
// Single-threaded discrete-time simulation: each cycle, every runnable kernel
// coroutine is resumed and runs until it suspends on `clk`, an empty/full
// FIFO, a barrier, or an SRAM port.  FIFO pushes become visible one cycle
// after the push (registered queues), which makes simulation results
// independent of resume order within a cycle.
//
// The engine detects deadlock: if no kernel is runnable this cycle, none is
// scheduled for a future cycle, and no waitable can make progress, it throws
// DeadlockError with a state dump.
#pragma once

#include <coroutine>
#include <cstdint>
#include <string>
#include <vector>

#include "hls/domain.hpp"
#include "hls/kernel.hpp"
#include "obs/trace.hpp"

namespace tsca::hls {

class CycleEngine final : public Domain, public CycleScheduler {
 public:
  CycleEngine() : Domain(true) {}
  CycleEngine(const CycleEngine&) = delete;
  CycleEngine& operator=(const CycleEngine&) = delete;

  // --- Domain ---
  void clk_wait(std::coroutine_handle<> h) override { next_.push_back(h); }
  std::uint64_t cycle() const override { return cycle_; }

  // --- CycleScheduler ---
  void schedule(std::coroutine_handle<> h) override { ready_.push_back(h); }
  void register_waitable(Waitable* waitable) override {
    // Registration exists for symmetry/debugging; polling is driven by
    // mark_waiting so idle primitives cost nothing per cycle.
    (void)waitable;
  }
  void mark_waiting(Waitable* waitable) override {
    // The in-list flag keeps waiting_ duplicate-free, so the advance-phase
    // sweep never has to compact repeated entries.
    if (waitable->in_wait_list_) return;
    waitable->in_wait_list_ = true;
    waiting_.push_back(waitable);
  }

  // Kernels to simulate.  The engine does not own the coroutines; the caller
  // (hls::System) keeps the Kernel objects alive for the whole run.
  void add_kernel(const std::string& name, const Kernel& kernel);

  // Per-kernel activity accounting: resumes ≈ cycles the unit did work (it
  // was neither FIFO- nor port-blocked).  Off by default — tracking costs a
  // hash lookup per resume.
  void enable_resume_tracking() { track_resumes_ = true; }
  struct KernelActivity {
    std::string name;
    std::uint64_t resumes = 0;
  };
  std::vector<KernelActivity> activity() const;

  // Observability: when set, the engine records one span per kernel on track
  // "<scope><kernel name>" covering [base_cycle, base_cycle + run cycles),
  // with busy (resume) and stall cycle counts as args — where cycles go
  // inside one instruction batch.  Implies resume tracking.
  void set_trace(obs::Recorder* recorder, std::string scope,
                 std::uint64_t base_cycle);

  // Runs until every kernel has finished.  Returns the number of simulated
  // cycles.  Throws the first kernel error, DeadlockError on deadlock, or
  // Error when max_cycles is exceeded.
  std::uint64_t run(std::uint64_t max_cycles);

 private:
  struct Root {
    std::string name;
    Kernel::Handle handle;
  };

  [[noreturn]] void throw_deadlock() const;
  void emit_kernel_spans() const;

  bool track_resumes_ = false;
  obs::Recorder* trace_ = nullptr;
  std::string trace_scope_;
  std::uint64_t trace_base_cycle_ = 0;
  std::vector<std::uint64_t> resumes_;
  // Done/error bookkeeping updated from the kernel promises, so the per-cycle
  // loop checks completion and errors in O(1) instead of sweeping roots_.
  CompletionSink sink_;
  std::vector<std::coroutine_handle<>> ready_;
  std::vector<std::coroutine_handle<>> next_;
  std::vector<std::coroutine_handle<>> batch_;  // reused run-phase scratch
  std::vector<Waitable*> waiting_;  // primitives with suspended waiters
  std::vector<Root> roots_;
};

}  // namespace tsca::hls
