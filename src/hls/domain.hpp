// Execution domains for kernels.
//
// A Domain answers one question for the awaiters: what does "wait" mean.
//   * ThreadDomain — `clk` is a no-op and FIFO waits block the calling
//     thread; this is the plain pthreads producer/consumer program.
//   * CycleEngine (cycle_engine.hpp) — `clk` suspends the coroutine until the
//     next clock cycle; FIFO waits suspend until the scheduler wakes them.
#pragma once

#include <coroutine>
#include <cstdint>
#include <thread>

#include "util/check.hpp"

namespace tsca::hls {

// Thrown inside kernels when the system is being torn down after a failure
// elsewhere (thread mode) so that blocked threads unwind.
class PoisonedError : public Error {
 public:
  using Error::Error;
};

class Domain {
 public:
  virtual ~Domain() = default;

  // clk awaiter hooks: ready==true means "advancing the clock costs nothing"
  // (thread mode).  In cycle mode clk_ready() is false and clk_wait schedules
  // the kernel for the next cycle.  clk_ready() is a plain read, not a
  // virtual call: every running kernel awaits the clock once per cycle.
  bool clk_ready() const { return !cycle_accurate_; }
  virtual void clk_wait(std::coroutine_handle<> h) = 0;
  virtual std::uint64_t cycle() const = 0;
  bool is_cycle_accurate() const { return cycle_accurate_; }

 protected:
  explicit Domain(bool cycle_accurate) : cycle_accurate_(cycle_accurate) {}

 private:
  const bool cycle_accurate_;
};

// `co_await clk(domain)` — one clock cycle in cycle mode, no-op in thread
// mode.  Every streaming loop iteration in a kernel must contain exactly one
// of these; that is what gives the loop II=1 pipeline semantics.
struct ClkAwaiter {
  Domain& domain;
  bool await_ready() const { return domain.clk_ready(); }
  void await_suspend(std::coroutine_handle<> h) const { domain.clk_wait(h); }
  void await_resume() const {}
};

inline ClkAwaiter clk(Domain& domain) { return ClkAwaiter{domain}; }

// `co_await poll_wait(domain)` — used by polling loops (accumulators merging
// several input streams).  Cycle mode: one clock cycle.  Thread mode: yields
// the OS thread so a spin-poll does not starve producers, then continues.
struct PollWaitAwaiter {
  Domain& domain;
  bool await_ready() const {
    if (domain.clk_ready()) {
      std::this_thread::yield();
      return true;
    }
    return false;
  }
  void await_suspend(std::coroutine_handle<> h) const { domain.clk_wait(h); }
  void await_resume() const {}
};

inline PollWaitAwaiter poll_wait(Domain& domain) {
  return PollWaitAwaiter{domain};
}

// Thread-mode domain: time is free.
class ThreadDomain final : public Domain {
 public:
  ThreadDomain() : Domain(false) {}
  void clk_wait(std::coroutine_handle<>) override {
    TSCA_CHECK(false, "clk_wait in thread domain");
  }
  std::uint64_t cycle() const override { return 0; }
};

// Hooks the cycle engine polls while a primitive has suspended waiters.
class Waitable {
 public:
  virtual ~Waitable() = default;
  // Called right after the clock advances; wake any waiters that can now
  // make progress (via CycleScheduler::schedule).  Returns whether any
  // coroutine is still suspended on this primitive: the engine stops
  // polling a primitive once its waiters are gone.
  virtual bool on_cycle_start() = 0;
  // True if some waiter will be able to make progress at a future cycle
  // boundary without external input — used for deadlock detection.
  virtual bool pending() const = 0;

 private:
  friend class CycleEngine;
  // Maintained by the engine: true while this primitive sits in its waiting
  // list, keeping mark_waiting O(1) and the list duplicate-free.
  bool in_wait_list_ = false;
};

// Thread-mode blocking primitives that can be torn down on failure.
class Poisonable {
 public:
  virtual ~Poisonable() = default;
  virtual void poison() = 0;
};

// Minimal scheduler interface the cycle-domain primitives (FIFOs, barriers,
// SRAM ports) need; implemented by CycleEngine.
class CycleScheduler {
 public:
  virtual ~CycleScheduler() = default;
  // The current cycle.  A plain read, not a virtual call: FIFOs and SRAM
  // ports consult it on every access.
  std::uint64_t scheduler_cycle() const { return cycle_; }
  // Schedule a woken coroutine to resume in the current cycle's run phase.
  virtual void schedule(std::coroutine_handle<> h) = 0;
  virtual void register_waitable(Waitable* waitable) = 0;
  // A waiter just suspended on `waitable`: poll it at cycle boundaries until
  // its waiters are gone.  Idempotent per boundary interval.
  virtual void mark_waiting(Waitable* waitable) = 0;

 protected:
  // Advanced by the engine; cycle 0 is "before time", so pushes made in
  // cycle 1 become visible in cycle 2.
  std::uint64_t cycle_ = 1;
};

}  // namespace tsca::hls
