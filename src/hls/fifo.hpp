// FIFO queues connecting kernels — the LEGUP_PTHREAD_FIFO equivalent.
//
// One queue, two modes, fixed when hls::System builds it:
//   * thread mode — bounded blocking queue (mutex + condvars): the pthreads
//     producer/consumer queue of the paper's software model.
//   * cycle mode — registered hardware FIFO for the cycle engine: data pushed
//     in cycle N becomes poppable in cycle N+1; at most one push and one pop
//     per cycle (single read/write port), so a kernel that forgets a clk
//     await still cannot consume more than hardware bandwidth allows.
//
// Kernels use `co_await fifo.pop()` / `co_await fifo.push(v)`; in thread
// mode these block instead of suspending.  Items live in a fixed ring of
// `capacity` slots allocated once; a value moves in on a successful push and
// moves out on pop.  The awaiters call the queue without a virtual call: the
// cycle engine resumes a kernel about 14 times per simulated cycle.
#pragma once

#include <condition_variable>
#include <coroutine>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "hls/domain.hpp"
#include "util/check.hpp"

namespace tsca::hls {

// Per-FIFO occupancy/stall statistics (valid in cycle mode).
struct FifoStats {
  std::uint64_t pushes = 0;
  std::uint64_t pops = 0;
  std::uint64_t push_stalls = 0;  // cycles a producer waited for space
  std::uint64_t pop_stalls = 0;   // cycles a consumer waited for data
};

// Fixed-capacity ring buffer: every slot is allocated up front, so pushing
// and popping never touch the allocator.  Callers check full()/empty().
template <typename T>
class Ring {
 public:
  explicit Ring(int capacity) : slots_(static_cast<std::size_t>(capacity)) {}

  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == slots_.size(); }

  // Claims the slot behind the last item; the caller assigns it.
  T& push_slot() {
    std::size_t tail = head_ + size_;
    if (tail >= slots_.size()) tail -= slots_.size();
    ++size_;
    return slots_[tail];
  }
  T& front() { return slots_[head_]; }
  const T& front() const { return slots_[head_]; }
  void pop_front() {
    if (++head_ == slots_.size()) head_ = 0;
    --size_;
  }

 private:
  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

template <typename T>
class Fifo;

template <typename T>
struct PopAwaiter {
  Fifo<T>& fifo;

  bool await_ready() const { return fifo.pop_ready(); }
  void await_suspend(std::coroutine_handle<> h) { fifo.subscribe_pop(h); }
  T await_resume() { return fifo.take(); }
};

template <typename T>
struct PushAwaiter {
  Fifo<T>& fifo;
  T value;
  bool done_early = false;

  bool await_ready() {
    done_early = fifo.try_push(value);  // moves `value` only on success
    return done_early;
  }
  void await_suspend(std::coroutine_handle<> h) { fifo.subscribe_push(h); }
  void await_resume() {
    if (!done_early) {
      const bool ok = fifo.try_push(value);
      TSCA_CHECK(ok, "woken pusher found no space: " << fifo.name());
    }
  }
};

// Notified on every completed blocking operation; the thread system's
// watchdog uses it to detect global lack of progress.
class ProgressSink {
 public:
  virtual ~ProgressSink() = default;
  virtual void note_progress() = 0;
};

template <typename T>
class Fifo final : public Waitable, public Poisonable {
 public:
  // Cycle mode on `sched`; thread mode when it is null, notifying `progress`
  // (when set) of every completed blocking operation.
  Fifo(std::string name, int capacity, CycleScheduler* sched,
       ProgressSink* progress)
      : name_(std::move(name)),
        capacity_(checked_capacity(capacity, name_)),
        sched_(sched),
        progress_(progress),
        items_(capacity_) {
    if (sched_ != nullptr) sched_->register_waitable(this);
  }
  Fifo(const Fifo&) = delete;
  Fifo& operator=(const Fifo&) = delete;

  const std::string& name() const { return name_; }
  int capacity() const { return capacity_; }

  PopAwaiter<T> pop() { return PopAwaiter<T>{*this}; }
  PushAwaiter<T> push(T value) { return PushAwaiter<T>{*this, std::move(value)}; }

  // Non-blocking pop in every mode (the accumulator units merge several
  // product streams per cycle with this).  Subject to the same one-pop-per-
  // cycle port rule as pop() in cycle mode.
  bool poll(T& out) {
    if (sched_ == nullptr) return poll_locked(out);
    if (!pop_possible_now()) return false;
    out = take_front();
    return true;
  }

  // Host-side injection before the system starts (e.g. prefilled instruction
  // queues): bypasses port accounting, fails only when full.
  bool seed(const T& value) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (items_.full()) return false;
    Item& slot = items_.push_slot();
    slot.value = value;
    slot.push_cycle = 0;  // cycle mode: visible from cycle 1 onward
    ++stats_.pushes;
    return true;
  }

  FifoStats stats() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
  }

  // --- awaiter hooks ---

  // Whether take() may run now.  Cycle mode: an item is visible and the read
  // port is free this cycle.  Thread mode: always (take() blocks).
  bool pop_ready() const { return sched_ == nullptr || pop_possible_now(); }

  T take() {
    if (sched_ != nullptr && pop_possible_now()) return take_front();
    return take_blocking();
  }

  void subscribe_pop(std::coroutine_handle<> h) {
    TSCA_CHECK(sched_ != nullptr, "thread fifo never suspends: " << name_);
    TSCA_CHECK(!waiting_pop_, "two poppers on fifo " << name_
                                                     << " (SPSC only)");
    waiting_pop_ = h;
    sched_->mark_waiting(this);
  }

  // Moves `value` into the queue when there is room and leaves it untouched
  // (for the retry after a wake) when there is not.  Thread mode blocks
  // until there is room.
  bool try_push(T& value) {
    if (sched_ == nullptr) return push_blocking(value);
    if (!push_possible_now()) return false;
    const std::uint64_t now = sched_->scheduler_cycle();
    put_back(value, now);
    last_push_cycle_ = now;
    return true;
  }

  void subscribe_push(std::coroutine_handle<> h) {
    TSCA_CHECK(sched_ != nullptr, "thread fifo never suspends: " << name_);
    TSCA_CHECK(!waiting_push_, "two pushers on fifo " << name_
                                                      << " (SPSC only)");
    waiting_push_ = h;
    sched_->mark_waiting(this);
  }

  // --- Waitable (cycle mode) ---
  bool on_cycle_start() override {
    if (waiting_pop_) {
      if (pop_possible_now()) {
        sched_->schedule(std::exchange(waiting_pop_, nullptr));
      } else {
        ++stats_.pop_stalls;
      }
    }
    if (waiting_push_) {
      if (push_possible_now()) {
        sched_->schedule(std::exchange(waiting_push_, nullptr));
      } else {
        ++stats_.push_stalls;
      }
    }
    return waiting_pop_ != nullptr || waiting_push_ != nullptr;
  }

  bool pending() const override {
    // A popper wakes once a staged item becomes visible; a pusher wakes once
    // occupancy drops (or, if the port limit blocked it, next cycle).
    const bool popper_can_advance = waiting_pop_ != nullptr && !items_.empty();
    const bool pusher_can_advance = waiting_push_ != nullptr && !items_.full();
    return popper_can_advance || pusher_can_advance;
  }

  // --- Poisonable (thread mode) ---
  void poison() override {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      poisoned_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

 private:
  struct Item {
    T value{};
    std::uint64_t push_cycle = 0;  // cycle mode: visible from the next cycle
  };

  static int checked_capacity(int capacity, const std::string& name) {
    TSCA_CHECK(capacity > 0, "fifo capacity: " << name);
    return capacity;
  }

  // The out-of-line halves of poll(), take() and try_push(): thread mode,
  // and the cycle-mode wake that finds no data (an engine bug).  Kept apart
  // so the cycle-mode paths stay small enough to inline into the kernels.
  [[gnu::noinline]] bool poll_locked(T& out) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (poisoned_ && items_.empty())
      throw PoisonedError("fifo poisoned: " + name_);
    if (items_.empty()) return false;
    out = take_front();
    lock.unlock();
    not_full_.notify_one();
    if (progress_ != nullptr) progress_->note_progress();
    return true;
  }

  [[gnu::noinline]] T take_blocking() {
    TSCA_CHECK(sched_ == nullptr, "woken popper found no data: " << name_);
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [&] { return !items_.empty() || poisoned_; });
    if (items_.empty()) throw PoisonedError("fifo poisoned: " + name_);
    T out = take_front();
    lock.unlock();
    not_full_.notify_one();
    if (progress_ != nullptr) progress_->note_progress();
    return out;
  }

  [[gnu::noinline]] bool push_blocking(T& value) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_full_.wait(lock, [&] { return !items_.full() || poisoned_; });
    if (poisoned_) throw PoisonedError("fifo poisoned: " + name_);
    put_back(value, 0);
    lock.unlock();
    not_empty_.notify_one();
    if (progress_ != nullptr) progress_->note_progress();
    return true;
  }

  // Ring access shared by both modes (thread mode holds mutex_).
  T take_front() {
    T out = std::move(items_.front().value);
    items_.pop_front();
    if (sched_ != nullptr) last_pop_cycle_ = sched_->scheduler_cycle();
    ++stats_.pops;
    return out;
  }
  void put_back(T& value, std::uint64_t push_cycle) {
    Item& slot = items_.push_slot();
    slot.value = std::move(value);
    slot.push_cycle = push_cycle;
    ++stats_.pushes;
  }

  bool pop_possible_now() const {
    const std::uint64_t now = sched_->scheduler_cycle();
    if (last_pop_cycle_ == now) return false;  // read port already used
    return !items_.empty() && items_.front().push_cycle < now;
  }

  bool push_possible_now() const {
    const std::uint64_t now = sched_->scheduler_cycle();
    if (last_push_cycle_ == now) return false;  // write port already used
    return !items_.full();
  }

  const std::string name_;
  const int capacity_;
  CycleScheduler* const sched_;  // null in thread mode
  ProgressSink* const progress_;
  // Guards items_, stats_ and poisoned_ in thread mode; cycle mode runs on
  // one thread and takes it only in seed() and stats().
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  Ring<Item> items_;
  bool poisoned_ = false;
  FifoStats stats_;
  // Cycle mode only.
  std::coroutine_handle<> waiting_pop_ = nullptr;
  std::coroutine_handle<> waiting_push_ = nullptr;
  std::uint64_t last_pop_cycle_ = ~std::uint64_t{0};
  std::uint64_t last_push_cycle_ = ~std::uint64_t{0};
};

}  // namespace tsca::hls
