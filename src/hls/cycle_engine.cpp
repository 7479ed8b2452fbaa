#include "hls/cycle_engine.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

namespace tsca::hls {

void CycleEngine::add_kernel(const std::string& name, const Kernel& kernel) {
  TSCA_CHECK(kernel.valid(), "invalid kernel: " << name);
  const Kernel::Handle handle = kernel.handle();
  handle.promise().sink = &sink_;
  handle.promise().root_index = static_cast<std::uint32_t>(roots_.size());
  ++sink_.live;
  roots_.push_back({name, handle});
  resumes_.push_back(0);
  ready_.push_back(handle);
}

std::vector<CycleEngine::KernelActivity> CycleEngine::activity() const {
  std::vector<KernelActivity> result;
  result.reserve(roots_.size());
  for (std::size_t i = 0; i < roots_.size(); ++i)
    result.push_back({roots_[i].name, resumes_[i]});
  return result;
}

void CycleEngine::set_trace(obs::Recorder* recorder, std::string scope,
                            std::uint64_t base_cycle) {
  trace_ = recorder;
  trace_scope_ = std::move(scope);
  trace_base_cycle_ = base_cycle;
  if (trace_ != nullptr) track_resumes_ = true;
}

void CycleEngine::emit_kernel_spans() const {
  for (std::size_t i = 0; i < roots_.size(); ++i) {
    const std::uint64_t busy = std::min(resumes_[i], cycle_);
    trace_->track(trace_scope_ + roots_[i].name)
        .complete(roots_[i].name, "kernel", trace_base_cycle_, cycle_,
                  {{"busy_cycles", static_cast<std::int64_t>(busy)},
                   {"stall_cycles", static_cast<std::int64_t>(cycle_ - busy)}});
  }
}

void CycleEngine::throw_deadlock() const {
  std::ostringstream os;
  os << "cycle-engine deadlock at cycle " << cycle_ << "; stuck kernels:";
  for (const Root& root : roots_)
    if (!root.handle.promise().done) os << ' ' << root.name;
  throw DeadlockError(os.str());
}

std::uint64_t CycleEngine::run(std::uint64_t max_cycles) {
  TSCA_CHECK(!roots_.empty(), "no kernels to run");
  for (;;) {
    // Run phase: resume every runnable kernel; resumed kernels may schedule
    // others only for later cycles (registered FIFOs), so a plain sweep over
    // the batch is complete for this cycle.  ready_ is swapped into the
    // reused batch_ vector, so the steady state allocates nothing per cycle.
    batch_.clear();
    batch_.swap(ready_);
    for (std::coroutine_handle<> h : batch_) {
      if (track_resumes_) {
        // Every handle in the engine is a root kernel's frame, so the root
        // index lives in its promise — no hash lookup.
        ++resumes_[Kernel::Handle::from_address(h.address())
                       .promise()
                       .root_index];
      }
      h.resume();
    }
    if (sink_.first_error) std::rethrow_exception(sink_.first_error);
    if (sink_.live == 0) {
      if (trace_ != nullptr) emit_kernel_spans();
      return cycle_;
    }

    // Advance phase.
    bool pending = !next_.empty() || !ready_.empty();
    if (!pending) {
      for (const Waitable* w : waiting_) {
        if (w->pending()) {
          pending = true;
          break;
        }
      }
    }
    if (!pending) throw_deadlock();
    if (cycle_ >= max_cycles)
      throw Error("cycle limit exceeded (" + std::to_string(max_cycles) +
                  " cycles) — runaway simulation?");
    ++cycle_;
    // The run phase only appends to next_ (primitives wake waiters in the
    // advance phase below), so ready_ is empty here.
    ready_.swap(next_);
    // Poll only primitives with suspended waiters.  mark_waiting keeps the
    // list duplicate-free, so one linear pass suffices.
    std::size_t keep = 0;
    for (Waitable* w : waiting_) {
      if (w->on_cycle_start())
        waiting_[keep++] = w;
      else
        w->in_wait_list_ = false;
    }
    waiting_.resize(keep);
  }
}

}  // namespace tsca::hls
