// On-FPGA SRAM banks.
//
// The accelerator uses four dual-port banks: an entire 16-value tile is read
// per cycle from port A, writes go to port B (the paper's RTL script gives
// reads and writes exclusive ports to avoid arbitration).  A bank word is 16
// bytes — one tile of sm8 feature-map values, or 16 bytes of packed weight
// stream.
//
// Port timing: in the cycle domain each port grants one access per cycle;
// kernels acquire the port with `co_await port.grant()` and then perform the
// access combinationally.  In the thread domain grants are free (functional
// model) — the thread program is the paper's software build, which has no
// port contention.
#pragma once

#include <array>
#include <coroutine>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "hls/domain.hpp"
#include "pack/tile.hpp"
#include "quant/sm8.hpp"
#include "util/check.hpp"

namespace tsca::sim {

inline constexpr int kWordBytes = 16;

// One bank word: 16 raw octets.
struct Word {
  std::array<std::uint8_t, kWordBytes> b{};
  bool operator==(const Word&) const = default;
};
static_assert(sizeof(Word) == kWordBytes, "bank words are packed octets");

// Tile (decoded int8 values) ↔ word (sm8 octets).
Word word_from_tile(const pack::Tile& tile);
pack::Tile tile_from_word(const Word& word);

// A single-access-per-cycle port.
class SramPort final : public hls::Waitable {
 public:
  SramPort(std::string name, hls::CycleScheduler* sched)
      : name_(std::move(name)), sched_(sched) {
    if (sched_ != nullptr) sched_->register_waitable(this);
  }

  struct GrantAwaiter {
    SramPort& port;
    bool await_ready() { return port.try_grant(); }
    void await_suspend(std::coroutine_handle<> h) { port.subscribe(h); }
    void await_resume() {
      // A woken waiter was granted the port by on_cycle_start.
    }
  };
  GrantAwaiter grant() { return GrantAwaiter{*this}; }

  // --- Waitable ---
  bool on_cycle_start() override {
    if (!waiters_.empty() && try_grant()) {
      sched_->schedule(waiters_.front());
      waiters_.erase(waiters_.begin());
    }
    return !waiters_.empty();
  }
  bool pending() const override { return !waiters_.empty(); }

  std::uint64_t grants() const { return grants_; }
  std::uint64_t stall_cycles() const { return stalls_; }

 private:
  bool try_grant() {
    if (sched_ == nullptr) {  // thread/functional mode: no contention model
      ++grants_;
      return true;
    }
    const std::uint64_t now = sched_->scheduler_cycle();
    if (granted_cycle_ == now) {
      ++stalls_;
      return false;
    }
    granted_cycle_ = now;
    ++grants_;
    return true;
  }

  void subscribe(std::coroutine_handle<> h) {
    waiters_.push_back(h);
    if (sched_ != nullptr) sched_->mark_waiting(this);
  }

  const std::string name_;
  hls::CycleScheduler* sched_;
  std::vector<std::coroutine_handle<>> waiters_;
  std::uint64_t granted_cycle_ = ~std::uint64_t{0};
  std::uint64_t grants_ = 0;
  std::uint64_t stalls_ = 0;
};

// A dual-port bank: port A reads, port B writes.
class SramBank {
 public:
  SramBank(std::string name, int words) : name_(std::move(name)) {
    TSCA_CHECK(words > 0, "bank size: " << name_);
    storage_.resize(static_cast<std::size_t>(words));
  }

  const std::string& name() const { return name_; }
  int size_words() const { return static_cast<int>(storage_.size()); }

  // Bind the ports to an execution domain for one run.  Ports are recreated
  // per run because cycle schedulers do not outlive an hls::System.
  void bind(hls::CycleScheduler* sched) {
    read_port_ = std::make_unique<SramPort>(name_ + ".portA", sched);
    write_port_ = std::make_unique<SramPort>(name_ + ".portB", sched);
  }

  SramPort& read_port() {
    TSCA_CHECK(read_port_ != nullptr, "bank not bound: " << name_);
    return *read_port_;
  }
  SramPort& write_port() {
    TSCA_CHECK(write_port_ != nullptr, "bank not bound: " << name_);
    return *write_port_;
  }

  // Combinational accesses (acquire the port first in cycle-accurate code).
  Word read_word(int addr) const {
    check_addr(addr);
    return storage_[static_cast<std::size_t>(addr)];
  }
  void write_word(int addr, const Word& word) {
    check_addr(addr);
    storage_[static_cast<std::size_t>(addr)] = word;
  }

  pack::Tile read_tile(int addr) const { return tile_from_word(read_word(addr)); }
  void write_tile(int addr, const pack::Tile& tile) {
    write_word(addr, word_from_tile(tile));
  }

  // The bank's octets from word `addr` to its end, for parsing a stream in
  // place (the weight fetch); reads past the end are the caller's to check.
  std::span<const std::uint8_t> bytes_from(int addr) const {
    check_addr(addr);
    return {reinterpret_cast<const std::uint8_t*>(storage_.data()) +
                static_cast<std::size_t>(addr) * kWordBytes,
            static_cast<std::size_t>(size_words() - addr) * kWordBytes};
  }

  // Bulk host/DMA access (no port accounting; DMA cost is modelled by the
  // DMA engine).
  void load(int addr, const std::uint8_t* bytes, std::size_t n);
  void store(int addr, std::uint8_t* bytes, std::size_t n) const;
  void fill(int addr, int words, std::uint8_t value);

 private:
  void check_addr(int addr) const {
    if (addr < 0 || addr >= size_words())
      throw MemoryError("bank " + name_ + " address out of range: " +
                        std::to_string(addr) + " / " +
                        std::to_string(size_words()));
  }

  const std::string name_;
  std::vector<Word> storage_;
  std::unique_ptr<SramPort> read_port_;
  std::unique_ptr<SramPort> write_port_;
};

}  // namespace tsca::sim
