// Serving subsystem: queue admission, dynamic batching, deadline handling,
// stop semantics, and bit-exactness of served outputs vs the serial runtime.
//
// Every suite here is named Serve* so tier1.sh's TSan configuration picks
// the whole file up (-R 'Pool|Program|Serve') — the server, scheduler and
// queue are exactly the kind of concurrent machinery TSan exists for.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/accelerator.hpp"
#include "driver/program.hpp"
#include "driver/program_registry.hpp"
#include "driver/runtime.hpp"
#include "nn/vgg16.hpp"
#include "nn/zoo.hpp"
#include "obs/trace.hpp"
#include "quant/prune.hpp"
#include "quant/quantize.hpp"
#include "serve/load_generator.hpp"
#include "serve/request_queue.hpp"
#include "serve/server.hpp"
#include "sim/dma.hpp"
#include "sim/dram.hpp"
#include "util/rng.hpp"
#include "image_run.hpp"

namespace tsca {
namespace {

nn::FeatureMapI8 random_fm(nn::FmShape shape, Rng& rng) {
  nn::FeatureMapI8 fm(shape);
  for (std::size_t i = 0; i < fm.size(); ++i)
    fm.data()[i] = static_cast<std::int8_t>(rng.next_int(-40, 40));
  return fm;
}

// One tiny VGG-16 in a one-model registry, compiled once and shared by every
// test (compilation is the expensive part; the program is immutable,
// sharing is the whole point).
struct SharedModel {
  SharedModel() : registry(core::ArchConfig::k256_opt()) {
    Rng rng(501);
    net = nn::build_vgg16(
        {.input_extent = 32, .channel_divisor = 16, .num_classes = 10});
    nn::WeightsF weights = nn::init_random_weights(net, rng);
    quant::prune_weights(net, weights, quant::vgg16_han_profile());
    nn::FeatureMapF calib(net.input_shape());
    for (std::size_t i = 0; i < calib.size(); ++i)
      calib.data()[i] = static_cast<float>(rng.next_gaussian() * 0.4);
    model = quant::quantize_network(net, weights, {calib});
    registry.add_model("vgg", net, model, /*pinned=*/true);
    lease = registry.acquire("vgg");
  }

  const driver::NetworkProgram& program() const { return lease.program(); }

  nn::Network net{nn::FmShape{}};
  quant::QuantizedModel model;
  driver::ProgramRegistry registry;
  driver::ProgramHandle lease;  // keeps the compiled program resident
};

SharedModel& shared_model() {
  static SharedModel* m = new SharedModel();
  return *m;
}

std::vector<std::int8_t> direct_logits(const nn::FeatureMapI8& input) {
  SharedModel& m = shared_model();
  core::Accelerator acc(m.program().config());
  sim::Dram dram(64u << 20);
  sim::DmaEngine dma(dram);
  driver::Runtime runtime(acc, dram, dma,
                          {.mode = driver::ExecMode::kFast});
  return run_image(runtime, m.program(), input).logits;
}

// --- run_network_batch (driver layer) ---------------------------------

// Batched execution is bit-identical per request to serial run_network, and
// the batch's aggregate weight traffic is amortized: weight chunks DMA once
// per chunk, not once per image.  Small banks force striping + weight
// chunking (and defeat pad+conv fusion), so the convs actually take the
// run_conv_batch path where the amortization lives — on the full-size config
// this net's convs all fuse and execute per image.
TEST(ServeBatchRun, BitExactAndWeightAmortized) {
  SharedModel& m = shared_model();
  Rng rng(502);
  constexpr int kBatch = 3;
  std::vector<nn::FeatureMapI8> inputs;
  for (int i = 0; i < kBatch; ++i)
    inputs.push_back(random_fm(m.net.input_shape(), rng));

  core::ArchConfig striped_cfg = core::ArchConfig::k256_opt();
  striped_cfg.bank_words = 128;
  const driver::NetworkProgram striped =
      driver::NetworkProgram::compile(m.net, m.model, striped_cfg);

  auto make_runtime = [&](core::Accelerator& acc, sim::Dram& dram,
                          sim::DmaEngine& dma) {
    return driver::Runtime(acc, dram, dma,
                           {.mode = driver::ExecMode::kCycle});
  };

  std::vector<ImageRun> serial;
  std::uint64_t serial_to_fpga = 0;
  for (const nn::FeatureMapI8& input : inputs) {
    core::Accelerator acc(striped.config());
    sim::Dram dram(64u << 20);
    sim::DmaEngine dma(dram);
    driver::Runtime runtime = make_runtime(acc, dram, dma);
    serial.push_back(run_image(runtime, striped, input));
    for (const driver::LayerRun& lr : serial.back().layers)
      serial_to_fpga += lr.dma.bytes_to_fpga;
  }

  core::Accelerator acc(striped.config());
  sim::Dram dram(64u << 20);
  sim::DmaEngine dma(dram);
  driver::Runtime runtime = make_runtime(acc, dram, dma);
  const driver::BatchNetworkRun batch =
      runtime.run_network_batch(striped, inputs);

  ASSERT_EQ(batch.requests.size(), inputs.size());
  for (int i = 0; i < kBatch; ++i) {
    EXPECT_EQ(batch.requests[static_cast<std::size_t>(i)].logits,
              serial[static_cast<std::size_t>(i)].logits)
        << "request " << i;
    EXPECT_TRUE(batch.requests[static_cast<std::size_t>(i)].flat_output);
  }
  // Aggregate layer stats cover the whole batch...
  ASSERT_EQ(batch.layers.size(), serial[0].layers.size());
  std::uint64_t batch_to_fpga = 0;
  for (const driver::LayerRun& lr : batch.layers)
    batch_to_fpga += lr.dma.bytes_to_fpga;
  // ...and move strictly fewer bytes FPGA-ward than three serial passes:
  // per-image stripes are paid three times, weight chunks only once.
  EXPECT_LT(batch_to_fpga, serial_to_fpga);
  EXPECT_GT(batch_to_fpga, serial_to_fpga / kBatch);
}

// Cooperative cancellation: a raised flag aborts run_network between steps.
TEST(ServeBatchRun, CancelFlagAbortsExecution) {
  SharedModel& m = shared_model();
  Rng rng(503);
  const nn::FeatureMapI8 input = random_fm(m.net.input_shape(), rng);

  core::Accelerator acc(m.program().config());
  sim::Dram dram(64u << 20);
  sim::DmaEngine dma(dram);
  std::atomic<bool> cancel{true};  // pre-raised: aborts at the first step
  driver::Runtime runtime(
      acc, dram, dma,
      {.mode = driver::ExecMode::kFast, .cancel = &cancel});
  EXPECT_THROW(run_image(runtime, m.program(), input),
               driver::RequestCancelled);
}

// --- RequestQueue ------------------------------------------------------

serve::Pending make_pending(std::uint64_t id, serve::TimePoint deadline,
                            int priority = serve::kPriorityHigh,
                            std::uint64_t client = 0) {
  serve::Pending p;
  p.request.id = id;
  p.request.deadline = deadline;
  p.request.submitted = serve::Clock::now();
  p.request.priority = priority;
  p.request.client_id = client;
  return p;
}

TEST(ServeQueue, EdfPopsEarliestDeadlineFirstAndNoDeadlineLast) {
  serve::RequestQueue q(8);
  const serve::TimePoint now = serve::Clock::now();
  ASSERT_EQ(q.push(make_pending(1, now + std::chrono::milliseconds(30))),
            serve::Admit::kAdmitted);
  ASSERT_EQ(q.push(make_pending(2, serve::kNoDeadline)),
            serve::Admit::kAdmitted);
  ASSERT_EQ(q.push(make_pending(3, now + std::chrono::milliseconds(10))),
            serve::Admit::kAdmitted);

  std::vector<serve::Pending> batch = q.pop_wait(3, 0, /*edf=*/true);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].request.id, 3u);
  EXPECT_EQ(batch[1].request.id, 1u);
  EXPECT_EQ(batch[2].request.id, 2u);
}

TEST(ServeQueue, FifoPreservesSubmissionOrder) {
  serve::RequestQueue q(8);
  const serve::TimePoint now = serve::Clock::now();
  ASSERT_EQ(q.push(make_pending(1, now + std::chrono::milliseconds(30))),
            serve::Admit::kAdmitted);
  ASSERT_EQ(q.push(make_pending(2, now + std::chrono::milliseconds(10))),
            serve::Admit::kAdmitted);
  std::vector<serve::Pending> batch = q.pop_wait(2, 0, /*edf=*/false);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].request.id, 1u);
  EXPECT_EQ(batch[1].request.id, 2u);
}

TEST(ServeQueue, RejectsWhenFullAndWhenClosed) {
  serve::RequestQueue q(2);
  EXPECT_EQ(q.push(make_pending(1, serve::kNoDeadline)),
            serve::Admit::kAdmitted);
  EXPECT_EQ(q.push(make_pending(2, serve::kNoDeadline)),
            serve::Admit::kAdmitted);
  EXPECT_EQ(q.push(make_pending(3, serve::kNoDeadline)),
            serve::Admit::kQueueFull);
  q.close();
  EXPECT_EQ(q.push(make_pending(4, serve::kNoDeadline)),
            serve::Admit::kShutdown);
  // Closed: pop_wait returns empty without blocking; the backlog drains.
  EXPECT_TRUE(q.pop_wait(4, 1000, true).empty());
  EXPECT_EQ(q.drain().size(), 2u);
}

TEST(ServeQueue, PopWaitFlushesPartialBatchAfterDelay) {
  serve::RequestQueue q(8);
  ASSERT_EQ(q.push(make_pending(1, serve::kNoDeadline)),
            serve::Admit::kAdmitted);
  // max_batch of 4 never arrives; the 2ms formation window must flush the
  // partial batch instead of blocking forever.
  std::vector<serve::Pending> batch = q.pop_wait(4, 2000, true);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].request.id, 1u);
}

TEST(ServeQueue, StrictPriorityAcrossClassesEdfWithinClass) {
  serve::RequestQueue q(8);
  const serve::TimePoint now = serve::Clock::now();
  ASSERT_EQ(q.push(make_pending(1, now + std::chrono::milliseconds(30),
                                /*priority=*/1)),
            serve::Admit::kAdmitted);
  ASSERT_EQ(q.push(make_pending(2, now + std::chrono::milliseconds(10),
                                /*priority=*/1)),
            serve::Admit::kAdmitted);
  ASSERT_EQ(q.push(make_pending(3, serve::kNoDeadline, /*priority=*/0)),
            serve::Admit::kAdmitted);
  ASSERT_EQ(q.push(make_pending(4, now + std::chrono::milliseconds(50),
                                /*priority=*/0)),
            serve::Admit::kAdmitted);

  // Class 0 drains completely (EDF inside it, no-deadline last) before any
  // class-1 entry is touched, even though class 1 holds the two earliest
  // deadlines overall.
  std::vector<serve::Pending> batch = q.pop_wait(4, 0, /*edf=*/true);
  ASSERT_EQ(batch.size(), 4u);
  EXPECT_EQ(batch[0].request.id, 4u);
  EXPECT_EQ(batch[1].request.id, 3u);
  EXPECT_EQ(batch[2].request.id, 2u);
  EXPECT_EQ(batch[3].request.id, 1u);
}

TEST(ServeQueue, FairShareEvictsOverShareClientForUnderShareClient) {
  serve::RequestQueue q(4);
  const serve::TimePoint now = serve::Clock::now();
  // Client 1 alone may use the whole queue (work-conserving).
  ASSERT_EQ(q.push(make_pending(1, now + std::chrono::milliseconds(10), 0, 1)),
            serve::Admit::kAdmitted);
  ASSERT_EQ(q.push(make_pending(2, serve::kNoDeadline, 0, 1)),
            serve::Admit::kAdmitted);
  ASSERT_EQ(q.push(make_pending(3, now + std::chrono::milliseconds(20), 0, 1)),
            serve::Admit::kAdmitted);
  ASSERT_EQ(q.push(make_pending(4, now + std::chrono::milliseconds(30), 0, 1)),
            serve::Admit::kAdmitted);

  // Client 2 arrives under its share (4/2 = 2): client 1's most expendable
  // entry — latest deadline, and kNoDeadline sorts after every real one —
  // is evicted to admit it.
  std::optional<serve::Pending> evicted;
  EXPECT_EQ(q.push(make_pending(5, now + std::chrono::milliseconds(5), 0, 2),
                   &evicted),
            serve::Admit::kAdmitted);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->request.id, 2u);
  EXPECT_EQ(q.size(), 4u);

  // Still under share: evicts again (latest real deadline now: id 4).
  evicted.reset();
  EXPECT_EQ(q.push(make_pending(6, now + std::chrono::milliseconds(5), 0, 2),
                   &evicted),
            serve::Admit::kAdmitted);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->request.id, 4u);

  // Both clients at their share: the full queue rejects either of them.
  evicted.reset();
  EXPECT_EQ(q.push(make_pending(7, now + std::chrono::milliseconds(1), 0, 2),
                   &evicted),
            serve::Admit::kQueueFull);
  EXPECT_FALSE(evicted.has_value());
  EXPECT_EQ(q.push(make_pending(8, now + std::chrono::milliseconds(1), 0, 1),
                   &evicted),
            serve::Admit::kQueueFull);
  EXPECT_FALSE(evicted.has_value());

  // A third client shrinks the share to max(1, 4/3) = 1; both incumbents are
  // over it, and the globally most expendable entry (latest deadline: id 3)
  // goes.
  EXPECT_EQ(q.push(make_pending(9, now + std::chrono::milliseconds(1), 0, 3),
                   &evicted),
            serve::Admit::kAdmitted);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->request.id, 3u);
}

TEST(ServeQueue, FairShareVictimPrefersLowestClass) {
  serve::RequestQueue q(2);
  const serve::TimePoint now = serve::Clock::now();
  // Client 1 holds a high-class no-deadline entry and a low-class one with a
  // tight deadline.  Class dominates the victim choice: the low-class entry
  // goes even though the high-class one has the later (infinite) deadline.
  ASSERT_EQ(q.push(make_pending(1, serve::kNoDeadline, /*priority=*/0, 1)),
            serve::Admit::kAdmitted);
  ASSERT_EQ(q.push(make_pending(2, now + std::chrono::milliseconds(1),
                                /*priority=*/2, 1)),
            serve::Admit::kAdmitted);
  std::optional<serve::Pending> evicted;
  EXPECT_EQ(q.push(make_pending(3, serve::kNoDeadline, 0, 2), &evicted),
            serve::Admit::kAdmitted);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->request.id, 2u);
}

// Regression test for the stale batch-formation anchor: with the old code,
// pop_wait computed flush_at from the queue front once per outer iteration;
// a concurrent popper could then steal that entry, and a *later* arrival
// inherited the expired window instead of opening its own.
//
// Timeline: A is pushed at t0 and a popper (window 400ms, batch 2) anchors
// on it; a second popper steals A at ~t0+50ms; B arrives at ~t0+100ms.  The
// fixed code re-anchors on B and holds it until ~t0+500ms; the stale-anchor
// code flushed B at t0+400ms, only ~300ms after its arrival.  The 350ms
// assertion threshold sits between the two, and the fixed behaviour can
// only ever wait *longer* (wait_until never returns early), so the test is
// timing-robust in the passing direction.
TEST(ServeQueue, PopWaitReanchorsFlushWindowAfterConcurrentSteal) {
  serve::RequestQueue q(8);
  constexpr std::int64_t kWindowUs = 400000;
  ASSERT_EQ(q.push(make_pending(1, serve::kNoDeadline)),
            serve::Admit::kAdmitted);

  std::vector<serve::Pending> got;
  serve::TimePoint popped_at{};
  std::thread popper([&] {
    got = q.pop_wait(2, kWindowUs, /*edf=*/true);
    popped_at = serve::Clock::now();
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // Steal A out from under the waiting popper (zero-delay pop).
  std::vector<serve::Pending> stolen = q.pop_wait(1, 0, /*edf=*/true);
  ASSERT_EQ(stolen.size(), 1u);
  EXPECT_EQ(stolen[0].request.id, 1u);

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const serve::TimePoint b_pushed = serve::Clock::now();
  ASSERT_EQ(q.push(make_pending(2, serve::kNoDeadline)),
            serve::Admit::kAdmitted);
  popper.join();

  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].request.id, 2u);
  // B must get its own full formation window, not the tail of A's.
  EXPECT_GE(serve::us_between(b_pushed, popped_at), 350000)
      << "flush window was anchored on a stolen entry";
}

// --- Server ------------------------------------------------------------

TEST(ServeServer, ExecutesBitExactAgainstSerialRuntime) {
  SharedModel& m = shared_model();
  Rng rng(504);
  constexpr int kRequests = 4;
  std::vector<nn::FeatureMapI8> inputs;
  for (int i = 0; i < kRequests; ++i)
    inputs.push_back(random_fm(m.net.input_shape(), rng));

  serve::ServerOptions opts;
  opts.workers = 2;
  serve::Server server(m.registry, "vgg", opts);
  std::vector<std::future<serve::Response>> futures;
  for (const nn::FeatureMapI8& input : inputs)
    futures.push_back(server.submit(input));

  for (int i = 0; i < kRequests; ++i) {
    serve::Response r = futures[static_cast<std::size_t>(i)].get();
    EXPECT_EQ(r.status, serve::Status::kOk);
    EXPECT_TRUE(r.executed);
    EXPECT_GE(r.batch_size, 1);
    EXPECT_EQ(r.logits, direct_logits(inputs[static_cast<std::size_t>(i)]))
        << "request " << i;
    EXPECT_GE(r.latency.exec_us, 0);
    EXPECT_EQ(r.latency.total_us(),
              r.latency.queued_us + r.latency.batch_us + r.latency.exec_us);
  }
  server.stop();
  EXPECT_EQ(server.metrics().counter("serve.completed").value(), kRequests);
  EXPECT_EQ(server.metrics().counter("serve.admitted").value(), kRequests);
}

TEST(ServeServer, CoalescesBurstsIntoDynamicBatches) {
  SharedModel& m = shared_model();
  Rng rng(505);
  constexpr int kRequests = 8;

  serve::ServerOptions opts;
  opts.workers = 1;
  opts.batch.max_batch = 4;
  opts.batch.max_queue_delay_us = 20000;  // long window: the burst coalesces
  serve::Server server(m.registry, "vgg", opts);

  std::vector<std::future<serve::Response>> futures;
  for (int i = 0; i < kRequests; ++i)
    futures.push_back(server.submit(random_fm(m.net.input_shape(), rng)));

  int max_batch_seen = 0;
  for (auto& f : futures) {
    const serve::Response r = f.get();
    EXPECT_EQ(r.status, serve::Status::kOk);
    max_batch_seen = std::max(max_batch_seen, r.batch_size);
  }
  EXPECT_GT(max_batch_seen, 1) << "a burst against one worker must coalesce";
  EXPECT_LE(max_batch_seen, opts.batch.max_batch);
  EXPECT_LT(server.metrics().counter("serve.batches").value(), kRequests);
  EXPECT_GT(server.metrics().histogram("serve.batch_size").max(), 1);
}

TEST(ServeServer, QueueFullRejectsWithReasonUnderOverload) {
  SharedModel& m = shared_model();
  Rng rng(506);

  serve::ServerOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 2;
  opts.batch.max_batch = 4;
  // The formation window out-waits the submission burst below, so the queue
  // is deterministically still full when the extra submissions arrive.
  opts.batch.max_queue_delay_us = 200000;
  serve::Server server(m.registry, "vgg", opts);

  constexpr int kRequests = 8;
  std::vector<std::future<serve::Response>> futures;
  for (int i = 0; i < kRequests; ++i)
    futures.push_back(server.submit(random_fm(m.net.input_shape(), rng)));

  int ok = 0, rejected = 0;
  for (auto& f : futures) {
    const serve::Response r = f.get();
    if (r.status == serve::Status::kOk) ++ok;
    if (r.status == serve::Status::kRejectedQueueFull) {
      ++rejected;
      EXPECT_FALSE(r.executed);
    }
  }
  EXPECT_EQ(ok + rejected, kRequests);
  EXPECT_GE(rejected, kRequests - static_cast<int>(opts.queue_capacity) - 1);
  EXPECT_EQ(server.metrics().counter("serve.rejected_queue_full").value(),
            rejected);
  EXPECT_GT(server.metrics().counter("serve.rejected_queue_full").value(), 0);
}

TEST(ServeServer, ExpiredRequestsAreShedBeforeExecution) {
  SharedModel& m = shared_model();
  Rng rng(507);

  serve::ServerOptions opts;
  opts.workers = 1;
  // No batch can fill (max_batch is above the five requests), so the worker
  // forms each one for a whole second.
  opts.batch.max_batch = 8;
  opts.batch.max_queue_delay_us = 1'000'000;
  serve::Server server(m.registry, "vgg", opts);

  // Request 0 is dispatched first; the 1ms-deadline requests submitted after
  // it wait out the next batch's formation second in the queue, so they
  // expire there, however fast a batch executes, and must be shed, not
  // executed.  Poll the batch counter so the doomed requests are provably
  // queued behind the head.
  auto head = server.submit(random_fm(m.net.input_shape(), rng));
  while (server.metrics().counter("serve.batches").value() < 1)
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  std::vector<std::future<serve::Response>> doomed;
  for (int i = 0; i < 4; ++i)
    doomed.push_back(
        server.submit(random_fm(m.net.input_shape(), rng), 1000));

  EXPECT_EQ(head.get().status, serve::Status::kOk);
  for (auto& f : doomed) {
    const serve::Response r = f.get();
    EXPECT_EQ(r.status, serve::Status::kDeadlineMissed);
    EXPECT_FALSE(r.executed) << "expired request must be shed, not run";
    EXPECT_EQ(r.latency.exec_us, 0);
  }
  EXPECT_EQ(server.metrics().counter("serve.deadline_missed").value(), 4);
  EXPECT_EQ(server.metrics().counter("serve.expired_shed").value(), 4);
  EXPECT_GT(server.metrics().counter("serve.deadline_missed").value(), 0);
}

// A deadline that is already expired at submit time exercises the
// shed-races-execution-start path with max_queue_delay 0: the scheduler and
// the worker's last-chance check both see an expired request immediately.
TEST(ServeServer, AlreadyExpiredDeadlineNeverExecutes) {
  SharedModel& m = shared_model();
  Rng rng(508);

  serve::ServerOptions opts;
  opts.workers = 1;
  opts.batch.max_queue_delay_us = 0;
  serve::Server server(m.registry, "vgg", opts);

  const serve::Response r =
      server.submit(random_fm(m.net.input_shape(), rng), 0).get();
  EXPECT_EQ(r.status, serve::Status::kDeadlineMissed);
  EXPECT_FALSE(r.executed);
}

TEST(ServeServer, StopCompletesEveryInFlightAndQueuedRequest) {
  SharedModel& m = shared_model();
  Rng rng(509);

  serve::ServerOptions opts;
  opts.workers = 1;
  opts.mode = driver::ExecMode::kCycle;  // a batch of 4 stays in flight a while
  // The worker takes at most 4 of the 6 requests; the other 2 cannot fill a
  // batch, so they wait out a whole second of formation in the queue.
  opts.batch.max_batch = 4;
  opts.batch.max_queue_delay_us = 1'000'000;
  serve::Server server(m.registry, "vgg", opts);

  constexpr int kRequests = 6;
  std::vector<std::future<serve::Response>> futures;
  for (int i = 0; i < kRequests; ++i)
    futures.push_back(server.submit(random_fm(m.net.input_shape(), rng)));
  // Give the worker a moment to take a batch in-flight, then pull the plug.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.stop();

  int ok = 0, cancelled = 0;
  for (auto& f : futures) {
    const serve::Response r = f.get();  // must complete — no deadlock
    if (r.status == serve::Status::kOk) ++ok;
    if (r.status == serve::Status::kCancelled) ++cancelled;
  }
  EXPECT_EQ(ok + cancelled, kRequests);
  EXPECT_GT(cancelled, 0) << "stop() must cancel the backlog";

  // After stop: rejected as shutdown, promptly.
  const serve::Response after =
      server.submit(random_fm(m.net.input_shape(), rng)).get();
  EXPECT_EQ(after.status, serve::Status::kRejectedShutdown);
  server.stop();  // idempotent
}

TEST(ServeServer, RecordsServeSpansForEveryRequest) {
  SharedModel& m = shared_model();
  Rng rng(510);

  obs::Recorder recorder;
  serve::ServerOptions opts;
  opts.workers = 1;
  opts.trace = &recorder;
  serve::Server server(m.registry, "vgg", opts);
  constexpr int kRequests = 3;
  std::vector<std::future<serve::Response>> futures;
  for (int i = 0; i < kRequests; ++i)
    futures.push_back(server.submit(random_fm(m.net.input_shape(), rng)));
  for (auto& f : futures) EXPECT_EQ(f.get().status, serve::Status::kOk);
  server.stop();

  int request_spans = 0;
  const std::vector<std::string> tracks = recorder.track_names();
  for (const obs::TraceEvent& e : recorder.events())
    if (tracks[static_cast<std::size_t>(e.track)] == "serve/requests")
      ++request_spans;
  EXPECT_EQ(request_spans, kRequests);
  // Worker-scoped runtime tracks (simulated-cycle domain) exist alongside.
  bool has_worker_track = false;
  for (const std::string& name : tracks)
    if (name.rfind("serve/worker0/", 0) == 0) has_worker_track = true;
  EXPECT_TRUE(has_worker_track);
}

// Regression test for the lost-clock bug: execute_batch persisted the
// worker's simulated-cycle clock on the success and cancellation paths but
// not when run_network_batch threw any other exception, so the next batch
// on that worker rewound the clock and its layer spans overlapped the
// failed batch's.  A per-request cycle budget gives a deterministic
// mid-run failure (the batch aborts after at least one layer has advanced
// the clock); the spans on the worker's layer track must stay disjoint and
// monotonic across the failure.
TEST(ServeServer, WorkerClockPersistsWhenBatchThrowsMidRun) {
  SharedModel& m = shared_model();
  Rng rng(511);
  obs::Recorder recorder;
  serve::ServerOptions opts;
  opts.workers = 1;
  opts.trace = &recorder;
  opts.batch.max_queue_delay_us = 0;
  serve::Server server(m.registry, "vgg", opts);

  EXPECT_EQ(server.submit(random_fm(m.net.input_shape(), rng)).get().status,
            serve::Status::kOk);
  serve::SubmitOptions budgeted;
  budgeted.cycle_budget = 1;  // exceeded after the first layer's cycles
  std::future<serve::Response> doomed =
      server.submit(random_fm(m.net.input_shape(), rng), budgeted);
  EXPECT_THROW(doomed.get(), driver::BudgetExceeded);
  EXPECT_EQ(server.submit(random_fm(m.net.input_shape(), rng)).get().status,
            serve::Status::kOk);
  server.stop();
  EXPECT_EQ(server.metrics().counter("serve.exec_errors").value(), 1);

  const std::vector<std::string> tracks = recorder.track_names();
  std::vector<std::pair<std::uint64_t, std::uint64_t>> spans;  // [begin, end)
  for (const obs::TraceEvent& e : recorder.events())
    if (tracks[static_cast<std::size_t>(e.track)] == "serve/worker0/layers")
      spans.emplace_back(e.begin, e.begin + e.duration);
  // Three batches ran (the middle one partially); the single worker records
  // its spans in execution order, and they must never rewind or overlap.
  ASSERT_GT(spans.size(), 2u);
  for (std::size_t i = 1; i < spans.size(); ++i)
    EXPECT_GE(spans[i].first, spans[i - 1].second)
        << "layer span " << i << " overlaps its predecessor: the failed "
        << "batch's clock was not persisted";
}

// Regression test for batch budget poisoning: execute_batch applied the
// strictest member's cycle budget to the whole run, and a BudgetExceeded
// failed every co-batched request — one client submitting cycle_budget=1
// requests poisoned its neighbors (other clients, other SLO classes) in
// every batch it landed in.  Only the budget-setting request may fail; the
// survivors re-run and complete with correct logits.
TEST(ServeServer, BudgetAbortDoesNotPoisonCoBatchedNeighbors) {
  SharedModel& m = shared_model();
  Rng rng(515);
  serve::ServerOptions opts;
  opts.workers = 1;
  opts.batch.max_batch = 4;
  opts.batch.max_queue_delay_us = 50000;  // the burst coalesces into a batch
  serve::Server server(m.registry, "vgg", opts);

  const nn::FeatureMapI8 a = random_fm(m.net.input_shape(), rng);
  const nn::FeatureMapI8 b = random_fm(m.net.input_shape(), rng);
  serve::SubmitOptions budgeted;
  budgeted.cycle_budget = 1;  // exceeded after the first layer's cycles
  std::future<serve::Response> victim_a = server.submit(a);
  std::future<serve::Response> doomed =
      server.submit(random_fm(m.net.input_shape(), rng), budgeted);
  std::future<serve::Response> victim_b = server.submit(b);

  EXPECT_THROW(doomed.get(), driver::BudgetExceeded);
  const serve::Response ra = victim_a.get();
  EXPECT_EQ(ra.status, serve::Status::kOk);
  EXPECT_EQ(ra.logits, direct_logits(a));
  // All three coalesced; the survivors re-ran as a batch of two.
  EXPECT_EQ(ra.batch_size, 2);
  const serve::Response rb = victim_b.get();
  EXPECT_EQ(rb.status, serve::Status::kOk);
  EXPECT_EQ(rb.logits, direct_logits(b));
  server.stop();
  EXPECT_EQ(server.metrics().counter("serve.budget_exceeded").value(), 1);
  EXPECT_EQ(server.metrics().counter("serve.completed").value(), 2);
}

// A batch that fails validation delivers the exception to every submitter
// exactly once — futures rethrow the original error, callbacks get a
// kError response with the reason.
TEST(ServeServer, ExecutionErrorReachesEverySubmitterExactlyOnce) {
  SharedModel& m = shared_model();
  Rng rng(512);
  nn::FmShape bad = m.net.input_shape();
  bad.c += 1;  // shape validation rejects the whole batch up front

  serve::ServerOptions opts;
  opts.workers = 1;
  opts.batch.max_batch = 4;
  opts.batch.max_queue_delay_us = 50000;  // the burst coalesces
  serve::Server server(m.registry, "vgg", opts);

  std::vector<std::future<serve::Response>> futures;
  for (int i = 0; i < 3; ++i)
    futures.push_back(server.submit(random_fm(bad, rng)));
  for (auto& f : futures) {
    EXPECT_THROW(f.get(), tsca::Error);
    // Exactly once: the future is consumed; a second get() is invalid by
    // std::future contract, and the promise was never set twice (that
    // would have thrown promise_already_satisfied inside the server).
    EXPECT_FALSE(f.valid());
  }

  // Callback path: the wire cannot carry exceptions, so the same failure
  // arrives as a kError response with the validation message.
  std::promise<serve::Response> done;
  server.submit_with(random_fm(bad, rng), {},
                     [&done](serve::Response&& r) {
                       done.set_value(std::move(r));
                     });
  const serve::Response r = done.get_future().get();
  EXPECT_EQ(r.status, serve::Status::kError);
  EXPECT_FALSE(r.executed);
  EXPECT_FALSE(r.error.empty());
  server.stop();
  EXPECT_GE(server.metrics().counter("serve.exec_errors").value(), 1);
}

// kNoDeadline requests must never be shed or marked late, even under a
// feasibility horizon that sheds every finite deadline on sight.
TEST(ServeServer, NoDeadlineRequestsAreNeverShed) {
  SharedModel& m = shared_model();
  Rng rng(513);
  serve::ServerOptions opts;
  opts.workers = 1;
  opts.batch.max_queue_delay_us = 0;
  opts.batch.cancel_expired = true;
  opts.batch.min_slack_us = 3600LL * 1000 * 1000;  // 1h horizon
  serve::Server server(m.registry, "vgg", opts);

  // Sanity: a generous finite deadline is still inside the 1h horizon, so
  // the feasibility shed fires for it...
  const serve::Response shed =
      server.submit(random_fm(m.net.input_shape(), rng), 1000000).get();
  EXPECT_EQ(shed.status, serve::Status::kDeadlineMissed);
  EXPECT_FALSE(shed.executed);

  // ...but deadline-less requests sail through and complete kOk.
  for (int i = 0; i < 3; ++i) {
    const serve::Response r =
        server.submit(random_fm(m.net.input_shape(), rng)).get();
    EXPECT_EQ(r.status, serve::Status::kOk);
    EXPECT_TRUE(r.executed);
  }
  server.stop();
  EXPECT_EQ(server.metrics().counter("serve.expired_shed").value(), 1);
}

// Client-initiated cancellation: a still-queued request completes as
// kCancelled without executing; cancelling a finished request is a no-op.
TEST(ServeServer, CancelRemovesQueuedRequest) {
  SharedModel& m = shared_model();
  Rng rng(514);
  serve::ServerOptions opts;
  opts.workers = 1;
  // No batch can fill, so each request waits out a second of batch
  // formation in the queue, where cancellation finds it.
  opts.batch.max_batch = 4;
  opts.batch.max_queue_delay_us = 1'000'000;
  serve::Server server(m.registry, "vgg", opts);

  std::future<serve::Response> head =
      server.submit(random_fm(m.net.input_shape(), rng));
  while (server.metrics().counter("serve.batches").value() < 1)
    std::this_thread::sleep_for(std::chrono::microseconds(100));

  std::promise<serve::Response> done;
  const std::uint64_t id = server.submit_with(
      random_fm(m.net.input_shape(), rng), {},
      [&done](serve::Response&& r) { done.set_value(std::move(r)); });
  EXPECT_TRUE(server.cancel(id)) << "request was queued behind the head";
  const serve::Response r = done.get_future().get();
  EXPECT_EQ(r.status, serve::Status::kCancelled);
  EXPECT_FALSE(r.executed);

  EXPECT_EQ(head.get().status, serve::Status::kOk);
  EXPECT_FALSE(server.cancel(id)) << "already completed: mark path only";
  server.stop();
  EXPECT_EQ(server.metrics().counter("serve.cancelled_by_client").value(), 1);
}

// Fair-share admission end to end: a flooding client cannot lock a second
// client out of a full queue — the newcomer evicts the flooder's most
// expendable entry, which completes as kRejectedQuota.
TEST(ServeServer, FairShareAdmitsSecondClientUnderFlood) {
  SharedModel& m = shared_model();
  Rng rng(515);
  serve::ServerOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 4;
  // No batch can fill (max_batch is above the queue's capacity), so the
  // worker forms each one for the whole second: the flood waits in the
  // queue, where the newcomer's pushes can evict it, however fast a batch
  // executes.
  opts.batch.max_batch = 5;
  opts.batch.max_queue_delay_us = 1'000'000;
  serve::Server server(m.registry, "vgg", opts);

  serve::SubmitOptions flooder;
  flooder.client_id = 1;
  serve::SubmitOptions newcomer;
  newcomer.client_id = 2;

  std::future<serve::Response> head =
      server.submit(random_fm(m.net.input_shape(), rng), flooder);
  while (server.metrics().counter("serve.batches").value() < 1)
    std::this_thread::sleep_for(std::chrono::microseconds(100));

  // The flooder fills the whole queue (work-conserving while uncontended).
  std::vector<std::future<serve::Response>> flood;
  for (int i = 0; i < 4; ++i)
    flood.push_back(server.submit(random_fm(m.net.input_shape(), rng),
                                  flooder));
  // The newcomer (share 4/2 = 2) evicts two flood entries, then hits its
  // own share and bounces off kQueueFull like anyone else.
  std::future<serve::Response> n1 =
      server.submit(random_fm(m.net.input_shape(), rng), newcomer);
  std::future<serve::Response> n2 =
      server.submit(random_fm(m.net.input_shape(), rng), newcomer);
  const serve::Response n3 =
      server.submit(random_fm(m.net.input_shape(), rng), newcomer).get();
  EXPECT_EQ(n3.status, serve::Status::kRejectedQueueFull);

  int quota_rejected = 0;
  for (auto& f : flood) {
    const serve::Response r = f.get();
    if (r.status == serve::Status::kRejectedQuota) {
      ++quota_rejected;
      EXPECT_FALSE(r.executed);
    } else {
      EXPECT_EQ(r.status, serve::Status::kOk);
    }
  }
  EXPECT_EQ(quota_rejected, 2);
  EXPECT_EQ(head.get().status, serve::Status::kOk);
  EXPECT_EQ(n1.get().status, serve::Status::kOk);
  EXPECT_EQ(n2.get().status, serve::Status::kOk);
  server.stop();
  EXPECT_EQ(server.metrics().counter("serve.rejected_quota").value(), 2);
}

// --- Load generator ----------------------------------------------------

// --- Registry-mode serving (multi-model routing) -----------------------

// Reference logits for a registry model via a private simulator instance.
std::vector<std::int8_t> registry_logits(driver::ProgramRegistry& registry,
                                         const std::string& id,
                                         const nn::FeatureMapI8& input) {
  const driver::ProgramHandle h = registry.acquire(id);
  core::Accelerator acc(registry.config());
  sim::Dram dram(64u << 20);
  sim::DmaEngine dma(dram);
  driver::Runtime runtime(acc, dram, dma, {.mode = driver::ExecMode::kFast});
  return run_image(runtime, h.program(), input).logits;
}

// Two zoo models with different input shapes behind one server: the model
// id routes each request to its own compiled program, outputs stay
// bit-exact per model, and per-model metrics attribute the traffic.
TEST(ServeRegistry, RoutesRequestsByModelIdBitExact) {
  const zoo::ZooModel mlp = zoo::make_ternary_mlp(13);
  const zoo::ZooModel mobile = zoo::make_mobile_depthwise(11);
  driver::ProgramRegistry registry(core::ArchConfig::k256_opt());
  registry.add_model("mlp", mlp.net, mlp.model);
  registry.add_model("mobile", mobile.net, mobile.model);

  serve::ServerOptions opts;
  opts.workers = 2;
  serve::Server server(registry, "mlp", opts);
  EXPECT_EQ(server.default_model(), "mlp");

  Rng rng(520);
  constexpr int kPerModel = 3;
  std::vector<nn::FeatureMapI8> mlp_in, mobile_in;
  std::vector<std::future<serve::Response>> mlp_f, mobile_f;
  for (int i = 0; i < kPerModel; ++i) {
    serve::SubmitOptions to_mlp;
    to_mlp.model_id = "mlp";
    mlp_in.push_back(random_fm(mlp.net.input_shape(), rng));
    mlp_f.push_back(server.submit(mlp_in.back(), to_mlp));
    serve::SubmitOptions to_mobile;
    to_mobile.model_id = "mobile";
    mobile_in.push_back(random_fm(mobile.net.input_shape(), rng));
    mobile_f.push_back(server.submit(mobile_in.back(), to_mobile));
  }
  for (int i = 0; i < kPerModel; ++i) {
    const serve::Response a = mlp_f[static_cast<std::size_t>(i)].get();
    EXPECT_EQ(a.status, serve::Status::kOk);
    EXPECT_EQ(a.logits, registry_logits(registry, "mlp",
                                        mlp_in[static_cast<std::size_t>(i)]))
        << "mlp request " << i;
    const serve::Response b = mobile_f[static_cast<std::size_t>(i)].get();
    EXPECT_EQ(b.status, serve::Status::kOk);
    EXPECT_EQ(b.logits,
              registry_logits(registry, "mobile",
                              mobile_in[static_cast<std::size_t>(i)]))
        << "mobile request " << i;
  }
  server.stop();
  EXPECT_EQ(server.metrics().counter("serve.model.mlp.completed").value(),
            kPerModel);
  EXPECT_EQ(server.metrics().counter("serve.model.mobile.completed").value(),
            kPerModel);
  EXPECT_EQ(server.metrics()
                .histogram("serve.model.mobile.latency_us")
                .snapshot()
                .count,
            kPerModel);
  EXPECT_EQ(server.metrics().counter("serve.completed").value(),
            2 * kPerModel);
}

// A batch never mixes models: with one worker and a generous coalescing
// window, a burst that alternates models still executes in single-model
// batches (every response's batch peers share its program).
TEST(ServeRegistry, BatchesNeverMixModels) {
  const zoo::ZooModel a = zoo::make_ternary_mlp(13);
  const zoo::ZooModel b = zoo::make_ternary_mlp(17);  // same shape, diff id
  driver::ProgramRegistry registry(core::ArchConfig::k256_opt());
  registry.add_model("a", a.net, a.model);
  registry.add_model("b", b.net, b.model);

  serve::ServerOptions opts;
  opts.workers = 1;
  opts.batch.max_batch = 8;
  opts.batch.max_queue_delay_us = 20000;
  serve::Server server(registry, "a", opts);

  Rng rng(521);
  constexpr int kPerModel = 4;
  std::vector<std::future<serve::Response>> futures;
  for (int i = 0; i < kPerModel; ++i)
    for (const char* id : {"a", "b"}) {
      serve::SubmitOptions so;
      so.model_id = id;
      futures.push_back(server.submit(random_fm(a.net.input_shape(), rng), so));
    }
  for (auto& f : futures) {
    const serve::Response r = f.get();
    EXPECT_EQ(r.status, serve::Status::kOk);
    EXPECT_LE(r.batch_size, kPerModel)
        << "a batch larger than one model's traffic must have mixed models";
  }
  server.stop();
  EXPECT_EQ(server.metrics().counter("serve.model.a.completed").value(),
            kPerModel);
  EXPECT_EQ(server.metrics().counter("serve.model.b.completed").value(),
            kPerModel);
}

// An unregistered model id is a typed rejection, and the server keeps
// serving known traffic after it.
TEST(ServeRegistry, UnknownModelIsTypedRejection) {
  const zoo::ZooModel mlp = zoo::make_ternary_mlp(13);
  driver::ProgramRegistry registry(core::ArchConfig::k256_opt());
  registry.add_model("mlp", mlp.net, mlp.model);
  serve::Server server(registry, "mlp", {});

  Rng rng(522);
  serve::SubmitOptions unknown;
  unknown.model_id = "not_a_model";
  const serve::Response r =
      server.submit(random_fm(mlp.net.input_shape(), rng), unknown).get();
  EXPECT_EQ(r.status, serve::Status::kRejectedUnknownModel);
  EXPECT_FALSE(r.executed);
  EXPECT_EQ(
      server.metrics().counter("serve.rejected_unknown_model").value(), 1);

  // The server still serves known traffic after the rejection.
  const nn::FeatureMapI8 good = random_fm(mlp.net.input_shape(), rng);
  const serve::Response ok = server.submit(good).get();
  EXPECT_EQ(ok.status, serve::Status::kOk);
  EXPECT_EQ(ok.logits, registry_logits(registry, "mlp", good));
}

// An empty model id resolves to the server default, and the default's
// per-model metrics attribute that traffic.
TEST(ServeRegistry, EmptyModelIdResolvesToDefault) {
  const zoo::ZooModel mlp = zoo::make_ternary_mlp(13);
  driver::ProgramRegistry registry(core::ArchConfig::k256_opt());
  registry.add_model("mlp", mlp.net, mlp.model);
  serve::Server server(registry, "mlp", {});

  Rng rng(523);
  const nn::FeatureMapI8 input = random_fm(mlp.net.input_shape(), rng);
  const serve::Response r = server.submit(input).get();
  EXPECT_EQ(r.status, serve::Status::kOk);
  EXPECT_EQ(r.logits, registry_logits(registry, "mlp", input));
  server.stop();
  EXPECT_EQ(server.metrics().counter("serve.model.mlp.completed").value(), 1);
}

// Alternating models through one worker forces the shared accelerator
// context to restage between programs; the restage counter proves the
// worker actually swapped weight images rather than serving stale ones.
TEST(ServeRegistry, MixedTrafficRestagesContexts) {
  const zoo::ZooModel mlp = zoo::make_ternary_mlp(13);
  const zoo::ZooModel mobile = zoo::make_mobile_depthwise(11);
  driver::ProgramRegistry registry(core::ArchConfig::k256_opt());
  registry.add_model("mlp", mlp.net, mlp.model);
  registry.add_model("mobile", mobile.net, mobile.model);

  serve::ServerOptions opts;
  opts.workers = 1;
  opts.batch.max_batch = 1;
  opts.batch.max_queue_delay_us = 0;
  serve::Server server(registry, "mlp", opts);

  Rng rng(524);
  for (int round = 0; round < 2; ++round) {
    serve::SubmitOptions to_mlp;
    to_mlp.model_id = "mlp";
    EXPECT_EQ(server.submit(random_fm(mlp.net.input_shape(), rng), to_mlp)
                  .get()
                  .status,
              serve::Status::kOk);
    serve::SubmitOptions to_mobile;
    to_mobile.model_id = "mobile";
    EXPECT_EQ(server.submit(random_fm(mobile.net.input_shape(), rng), to_mobile)
                  .get()
                  .status,
              serve::Status::kOk);
  }
  server.stop();
  EXPECT_GE(server.metrics().counter("serve.model_restage").value(), 2)
      << "alternating models on one worker must restage its context";
}

TEST(ServeLoadGen, PoissonScheduleIsDeterministicAndRateAccurate) {
  const std::vector<std::int64_t> a = serve::poisson_arrivals_us(42, 500, 200);
  const std::vector<std::int64_t> b = serve::poisson_arrivals_us(42, 500, 200);
  EXPECT_EQ(a, b) << "same seed ⇒ same schedule";
  const std::vector<std::int64_t> c = serve::poisson_arrivals_us(43, 500, 200);
  EXPECT_NE(a, c) << "different seed ⇒ different schedule";
  // Mean inter-arrival of a 200 rps process is 5000µs; 500 samples land
  // within a generous ±30%.
  const double mean_gap =
      static_cast<double>(a.back()) / static_cast<double>(a.size());
  EXPECT_GT(mean_gap, 3500.0);
  EXPECT_LT(mean_gap, 6500.0);
  for (std::size_t i = 1; i < a.size(); ++i) EXPECT_GE(a[i], a[i - 1]);
}

TEST(ServeLoadGen, ClosedLoopReportAccountsEveryRequest) {
  SharedModel& m = shared_model();
  serve::ServerOptions opts;
  opts.workers = 2;
  serve::Server server(m.registry, "vgg", opts);

  serve::LoadOptions load;
  load.requests = 12;
  load.concurrency = 3;
  load.rate_rps = 0.0;  // closed loop
  load.seed = 7;
  const serve::LoadReport report = serve::run_load(server, load);
  server.stop();

  EXPECT_EQ(report.submitted, 12);
  EXPECT_EQ(report.ok, 12);
  EXPECT_EQ(report.rejected + report.deadline_missed + report.cancelled, 0);
  EXPECT_EQ(report.latency_us.count, 12);
  EXPECT_GT(report.goodput_rps, 0.0);
  EXPECT_GE(report.latency_us.p99, report.latency_us.p50);
}

}  // namespace
}  // namespace tsca
