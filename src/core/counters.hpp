// Hardware event counters.
//
// Counted by the kernels in both execution modes.  Each kernel counts into
// its own KernelCounters and publishes the totals to the shared atomic
// Counters once, when it finishes — the threaded engine runs 20+ kernel
// threads, and one atomic add per event would make them contend.  They feed
// the GOPS accounting, the efficiency study (Fig. 7) and the activity-based
// power model (Table I).
#pragma once

#include <atomic>
#include <cstdint>

namespace tsca::core {

struct Counters {
  // Weight commands entering convolution units (one per cycle per lane in
  // steady state), split into real weights and bubbles from unbalanced
  // sparsity across the concurrent filters.
  std::atomic<std::int64_t> weight_cmds{0};
  std::atomic<std::int64_t> weight_bubbles{0};

  // Multiply-accumulates actually performed (non-zero weight × 16 values ×
  // active filters).
  std::atomic<std::int64_t> macs_performed{0};

  // SRAM traffic (tile-wide words).
  std::atomic<std::int64_t> ifm_tile_reads{0};
  std::atomic<std::int64_t> weight_word_reads{0};   // scratch preload + spill
  std::atomic<std::int64_t> weight_spill_reads{0};  // the per-position spill
  std::atomic<std::int64_t> ofm_tile_writes{0};

  // Pool/pad unit activity.
  std::atomic<std::int64_t> pool_ops{0};

  // Instruction counts.
  std::atomic<std::int64_t> conv_instrs{0};
  std::atomic<std::int64_t> pad_instrs{0};
  std::atomic<std::int64_t> pool_instrs{0};

  // OFM tile positions completed (barrier releases in the 4-lane variants).
  std::atomic<std::int64_t> positions{0};

  void reset() {
    weight_cmds = 0;
    weight_bubbles = 0;
    macs_performed = 0;
    ifm_tile_reads = 0;
    weight_word_reads = 0;
    weight_spill_reads = 0;
    ofm_tile_writes = 0;
    pool_ops = 0;
    conv_instrs = 0;
    pad_instrs = 0;
    pool_instrs = 0;
    positions = 0;
  }
};

// Plain-value snapshot of Counters (copyable, for reporting).
struct CounterSnapshot {
  std::int64_t weight_cmds = 0;
  std::int64_t weight_bubbles = 0;
  std::int64_t macs_performed = 0;
  std::int64_t ifm_tile_reads = 0;
  std::int64_t weight_word_reads = 0;
  std::int64_t weight_spill_reads = 0;
  std::int64_t ofm_tile_writes = 0;
  std::int64_t pool_ops = 0;
  std::int64_t conv_instrs = 0;
  std::int64_t pad_instrs = 0;
  std::int64_t pool_instrs = 0;
  std::int64_t positions = 0;

  bool operator==(const CounterSnapshot&) const = default;
};

inline CounterSnapshot& operator+=(CounterSnapshot& a,
                                   const CounterSnapshot& b) {
  a.weight_cmds += b.weight_cmds;
  a.weight_bubbles += b.weight_bubbles;
  a.macs_performed += b.macs_performed;
  a.ifm_tile_reads += b.ifm_tile_reads;
  a.weight_word_reads += b.weight_word_reads;
  a.weight_spill_reads += b.weight_spill_reads;
  a.ofm_tile_writes += b.ofm_tile_writes;
  a.pool_ops += b.pool_ops;
  a.conv_instrs += b.conv_instrs;
  a.pad_instrs += b.pad_instrs;
  a.pool_instrs += b.pool_instrs;
  a.positions += b.positions;
  return a;
}

// after − before, for per-layer / per-stripe accounting.
inline CounterSnapshot operator-(const CounterSnapshot& after,
                                 const CounterSnapshot& before) {
  CounterSnapshot d;
  d.weight_cmds = after.weight_cmds - before.weight_cmds;
  d.weight_bubbles = after.weight_bubbles - before.weight_bubbles;
  d.macs_performed = after.macs_performed - before.macs_performed;
  d.ifm_tile_reads = after.ifm_tile_reads - before.ifm_tile_reads;
  d.weight_word_reads = after.weight_word_reads - before.weight_word_reads;
  d.weight_spill_reads = after.weight_spill_reads - before.weight_spill_reads;
  d.ofm_tile_writes = after.ofm_tile_writes - before.ofm_tile_writes;
  d.pool_ops = after.pool_ops - before.pool_ops;
  d.conv_instrs = after.conv_instrs - before.conv_instrs;
  d.pad_instrs = after.pad_instrs - before.pad_instrs;
  d.pool_instrs = after.pool_instrs - before.pool_instrs;
  d.positions = after.positions - before.positions;
  return d;
}

// Publishes counts gathered elsewhere (one atomic add per counter).
inline Counters& operator+=(Counters& c, const CounterSnapshot& d) {
  constexpr auto relaxed = std::memory_order_relaxed;
  c.weight_cmds.fetch_add(d.weight_cmds, relaxed);
  c.weight_bubbles.fetch_add(d.weight_bubbles, relaxed);
  c.macs_performed.fetch_add(d.macs_performed, relaxed);
  c.ifm_tile_reads.fetch_add(d.ifm_tile_reads, relaxed);
  c.weight_word_reads.fetch_add(d.weight_word_reads, relaxed);
  c.weight_spill_reads.fetch_add(d.weight_spill_reads, relaxed);
  c.ofm_tile_writes.fetch_add(d.ofm_tile_writes, relaxed);
  c.pool_ops.fetch_add(d.pool_ops, relaxed);
  c.conv_instrs.fetch_add(d.conv_instrs, relaxed);
  c.pad_instrs.fetch_add(d.pad_instrs, relaxed);
  c.pool_instrs.fetch_add(d.pool_instrs, relaxed);
  c.positions.fetch_add(d.positions, relaxed);
  return c;
}

// One kernel's counts: plain integers while it runs, added to the shared
// Counters when the object goes out of scope.  A kernel declares it as a
// local of its coroutine body, so the totals are published when the body
// ends (normally, by exception, or when a suspended frame is destroyed) —
// before the kernel's final suspension, hence before System::run returns.
class KernelCounters {
 public:
  explicit KernelCounters(Counters& shared) : shared_(shared) {}
  ~KernelCounters() { shared_ += counts; }
  KernelCounters(const KernelCounters&) = delete;
  KernelCounters& operator=(const KernelCounters&) = delete;

  CounterSnapshot counts;

 private:
  Counters& shared_;
};

inline CounterSnapshot snapshot(const Counters& c) {
  CounterSnapshot s;
  s.weight_cmds = c.weight_cmds.load();
  s.weight_bubbles = c.weight_bubbles.load();
  s.macs_performed = c.macs_performed.load();
  s.ifm_tile_reads = c.ifm_tile_reads.load();
  s.weight_word_reads = c.weight_word_reads.load();
  s.weight_spill_reads = c.weight_spill_reads.load();
  s.ofm_tile_writes = c.ofm_tile_writes.load();
  s.pool_ops = c.pool_ops.load();
  s.conv_instrs = c.conv_instrs.load();
  s.pad_instrs = c.pad_instrs.load();
  s.pool_instrs = c.pool_instrs.load();
  s.positions = c.positions.load();
  return s;
}

}  // namespace tsca::core
