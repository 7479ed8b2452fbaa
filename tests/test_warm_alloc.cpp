// The zero-allocation warm path, measured: under TSCA_COUNT_ALLOCS the
// global operator new is hooked, and these tests assert that a warm serving
// request allocates at most a small documented constant — the per-request
// bookkeeping DESIGN.md §15 itemizes (response logits buffer, promise state,
// queue/batch containers), never the per-layer tensor churn the scratch
// arenas and Runtime reuse eliminated.
//
// In a build without TSCA_COUNT_ALLOCS the serving test skips (there is
// nothing to measure) and only the API-coherence test runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <future>
#include <vector>

#include "core/config.hpp"
#include "driver/program_registry.hpp"
#include "nn/zoo.hpp"
#include "obs/alloc_count.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"

namespace tsca {
namespace {

// What one warm request may allocate (DESIGN.md §15): the caller's input
// copy, the logits buffer the response donates, the promise/future shared
// state, the Pending's queue slot, the scheduler's batch vector, the
// per-batch result containers, and the pool layers' output maps.  Each is
// O(1) and small (measured steady state: 18 allocations); 32 is a
// deliberately loose ceiling that still fails instantly if any per-layer
// working buffer (tile planes, accumulators, metric-name strings — dozens
// to thousands of allocations per request) leaks back in.
constexpr std::int64_t kMaxAllocsPerWarmRequest = 32;
constexpr std::int64_t kMaxBytesPerWarmRequest = 64 * 1024;

nn::FeatureMapI8 make_input(const nn::FmShape& shape, std::uint64_t seed) {
  Rng rng(seed);
  nn::FeatureMapI8 fm(shape);
  for (std::size_t i = 0; i < fm.size(); ++i)
    fm.data()[i] = static_cast<std::int8_t>(rng.next_int(-64, 64));
  return fm;
}

TEST(WarmAllocApi, StatsAreCoherentWithBuildMode) {
  obs::reset_warm_alloc_stats();
  if (!obs::alloc_counting_enabled()) {
    // Uninstrumented build: the API exists and reads zero, armed or not.
    const obs::WarmPathGuard guard;
    std::vector<int> v(1024, 1);
    ASSERT_NE(v[0], 0);
    EXPECT_EQ(obs::warm_alloc_stats().count, 0);
    EXPECT_EQ(obs::warm_alloc_stats().bytes, 0);
    return;
  }

  // Instrumented: allocations count only while armed.
  {
    std::vector<int> cold(1024, 1);
    ASSERT_NE(cold[0], 0);
  }
  EXPECT_EQ(obs::warm_alloc_stats().count, 0);
  {
    const obs::WarmPathGuard guard;
    std::vector<int> hot(1024, 1);
    ASSERT_NE(hot[0], 0);
  }
  const obs::AllocStats stats = obs::warm_alloc_stats();
  EXPECT_GE(stats.count, 1);
  EXPECT_GE(stats.bytes, static_cast<std::int64_t>(1024 * sizeof(int)));
  obs::reset_warm_alloc_stats();
  EXPECT_EQ(obs::warm_alloc_stats().count, 0);
}

TEST(WarmAllocServe, WarmRequestsStayWithinDocumentedBound) {
  if (!obs::alloc_counting_enabled())
    GTEST_SKIP() << "build without TSCA_COUNT_ALLOCS";

  const zoo::ZooModel m = zoo::make_residual_cifar(7);
  driver::ProgramRegistry registry(core::ArchConfig::k256_opt());
  registry.add_model("residual", m.net, m.model);
  serve::Server server(registry, "residual", {.workers = 1});
  const nn::FeatureMapI8 input = make_input(m.net.input_shape(), 0xA11);

  const auto serve_one = [&] {
    serve::Response r = server.submit(input).get();
    ASSERT_EQ(r.status, serve::Status::kOk);
  };

  // The first request pays for whatever startup did not presize (first
  // to_tiled growth, per-class metric caches, pooled tensors) — measure it
  // for scale.  The deep cold costs (compile, weight staging,
  // reserve_warm_scratch) run at server construction, before any request.
  obs::reset_warm_alloc_stats();
  std::int64_t cold_allocs = 0;
  {
    const obs::WarmPathGuard guard;
    serve_one();
    cold_allocs = obs::warm_alloc_stats().count;
  }

  // A few more unmeasured rounds let every lazily-grown buffer (deque
  // blocks, metric caches, pooled tensors) reach steady state.
  for (int i = 0; i < 8; ++i) serve_one();

  constexpr std::int64_t kWarmRequests = 64;
  obs::reset_warm_alloc_stats();
  {
    const obs::WarmPathGuard guard;
    for (std::int64_t i = 0; i < kWarmRequests; ++i) serve_one();
  }
  const obs::AllocStats warm = obs::warm_alloc_stats();
  const std::int64_t allocs_per_request = warm.count / kWarmRequests;
  const std::int64_t bytes_per_request = warm.bytes / kWarmRequests;
  std::printf("warm request: %.1f allocations, %lld bytes\n",
              static_cast<double>(warm.count) / kWarmRequests,
              static_cast<long long>(bytes_per_request));

  EXPECT_LE(allocs_per_request, kMaxAllocsPerWarmRequest)
      << warm.count << " allocations over " << kWarmRequests << " requests";
  EXPECT_LE(bytes_per_request, kMaxBytesPerWarmRequest)
      << warm.bytes << " bytes over " << kWarmRequests << " requests";
  // The arenas must have eliminated the per-layer churn: a steady-state
  // request allocates no more than the first one, which additionally paid
  // every lazily-grown buffer.  (The strict version of "warm beats cold" —
  // compile and scratch reservation — happens at server startup and is
  // covered by the compile-cache benchmark, not measurable here.)
  EXPECT_LE(allocs_per_request, cold_allocs)
      << "warm " << allocs_per_request << "/req vs cold " << cold_allocs;

  // The per-worker reuse metrics observed their batches.
  EXPECT_GT(server.metrics().histogram("serve.worker.arena_bytes")
                .snapshot().count, 0);
  EXPECT_GT(server.metrics().histogram("serve.worker.scratch_bytes")
                .snapshot().count, 0);
}

}  // namespace
}  // namespace tsca
