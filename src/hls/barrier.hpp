// Reusable barrier — the pthread_barrier_t equivalent.
//
// The paper synchronizes completion of the four concurrently computed OFM
// tiles with a Pthreads barrier; both domains provide one.  The cycle-domain
// barrier releases all participants on the cycle *after* the last arrival
// (one cycle of synchronization latency, like a registered handshake).
#pragma once

#include <condition_variable>
#include <coroutine>
#include <mutex>
#include <string>
#include <vector>

#include "hls/domain.hpp"
#include "util/check.hpp"

namespace tsca::hls {

class Barrier {
 public:
  Barrier(std::string name, int participants)
      : name_(std::move(name)), participants_(participants) {
    TSCA_CHECK(participants > 0, "barrier participants: " << name_);
  }
  virtual ~Barrier() = default;
  Barrier(const Barrier&) = delete;
  Barrier& operator=(const Barrier&) = delete;

  const std::string& name() const { return name_; }
  int participants() const { return participants_; }

  // Awaiter hooks: try_arrive returns true when the caller may continue
  // immediately (thread mode blocks inside and then returns true).
  virtual bool try_arrive() = 0;
  virtual void subscribe(std::coroutine_handle<> h) = 0;

  struct Awaiter {
    Barrier& barrier;
    bool await_ready() { return barrier.try_arrive(); }
    void await_suspend(std::coroutine_handle<> h) { barrier.subscribe(h); }
    void await_resume() {}
  };
  Awaiter arrive_and_wait() { return Awaiter{*this}; }

 protected:
  const std::string name_;
  const int participants_;
};

class ThreadBarrier final : public Barrier, public Poisonable {
 public:
  ThreadBarrier(std::string name, int participants)
      : Barrier(std::move(name), participants) {}

  bool try_arrive() override {
    std::unique_lock<std::mutex> lock(mutex_);
    if (poisoned_) throw PoisonedError("barrier poisoned: " + name_);
    const std::uint64_t generation = generation_;
    if (++arrived_ == participants_) {
      arrived_ = 0;
      ++generation_;
      lock.unlock();
      released_.notify_all();
      return true;
    }
    released_.wait(lock,
                   [&] { return generation_ != generation || poisoned_; });
    if (generation_ == generation)
      throw PoisonedError("barrier poisoned: " + name_);
    return true;
  }

  void subscribe(std::coroutine_handle<>) override {
    TSCA_CHECK(false, "thread barrier never suspends: " << name_);
  }

  void poison() override {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      poisoned_ = true;
    }
    released_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable released_;
  int arrived_ = 0;
  std::uint64_t generation_ = 0;
  bool poisoned_ = false;
};

class CycleBarrier final : public Barrier, public Waitable {
 public:
  CycleBarrier(std::string name, int participants, CycleScheduler& sched)
      : Barrier(std::move(name), participants), sched_(sched) {
    sched_.register_waitable(this);
  }

  bool try_arrive() override { return false; }  // always suspends ≥ 1 cycle

  void subscribe(std::coroutine_handle<> h) override {
    TSCA_CHECK(static_cast<int>(arrived_.size()) < participants_,
               "barrier over-subscribed: " << name_);
    arrived_.push_back(h);
    sched_.mark_waiting(this);
  }

  bool on_cycle_start() override {
    if (static_cast<int>(arrived_.size()) == participants_) {
      for (std::coroutine_handle<> h : arrived_) sched_.schedule(h);
      arrived_.clear();
      ++releases_;
    }
    return !arrived_.empty();
  }

  bool pending() const override {
    return static_cast<int>(arrived_.size()) == participants_;
  }

  std::uint64_t releases() const { return releases_; }

 private:
  CycleScheduler& sched_;
  std::vector<std::coroutine_handle<>> arrived_;
  std::uint64_t releases_ = 0;
};

}  // namespace tsca::hls
