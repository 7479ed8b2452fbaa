// --selftest: the statistics and the failure accounting against
// hand-computed values.
#include <cmath>
#include <cstdio>
#include <vector>

#include "serve/protocol.hpp"
#include "stats.hpp"
#include "wire.hpp"

namespace bench {

namespace {

using tsca::serve::Response;
using tsca::serve::Status;

int failures = 0;

void expect(bool cond, const char* what) {
  if (cond) return;
  std::fprintf(stderr, "selftest FAIL: %s\n", what);
  ++failures;
}

std::vector<double> range(int lo, int hi) {
  std::vector<double> v;
  for (int i = lo; i <= hi; ++i) v.push_back(i);
  return v;
}

// A response as the socket client receives it: through the wire codec.
Response over_the_wire(const Response& r) {
  return tsca::serve::decode_response(tsca::serve::encode_response(7, r))
      .response;
}

}  // namespace

int run_selftest() {
  failures = 0;

  // Nearest rank: the ceil(p/100 * n)-th smallest sample.
  expect(nearest_rank(range(1, 100), 50) == 50, "p50 of 1..100 is 50");
  expect(nearest_rank(range(1, 100), 99) == 99, "p99 of 1..100 is 99");
  expect(nearest_rank(range(1, 100), 99.9) == 100, "p99.9 of 1..100 is 100");
  expect(nearest_rank(range(1, 100), 1) == 1, "p1 of 1..100 is 1");
  expect(nearest_rank(range(1, 10), 50) == 5, "p50 of 1..10 is 5");
  expect(nearest_rank(range(1, 10), 99) == 10, "p99 of 1..10 is 10");
  expect(nearest_rank({10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 90) == 9,
         "order of the input does not matter");
  expect(nearest_rank({42}, 99) == 42, "a single sample is every percentile");
  expect(std::isnan(nearest_rank({}, 50)), "no samples gives NaN");
  expect(nearest_rank({5, 1, 4, 2, 3}, 50) == 3, "p50 of 1..5 is 3");
  expect(nearest_rank({10, 20, kInf, kInf}, 50) == 20,
         "misses (+inf) sort last: p50 of {10,20,inf,inf} is 20");
  expect(std::isinf(nearest_rank({10, 20, kInf, kInf}, 75)),
         "p75 of {10,20,inf,inf} is inf");

  // Phase percentile: per-1-second-window nearest rank, then the median
  // across the windows.
  expect(kWindowS == 1.0, "windows are 1 s long");
  const std::vector<Timed> three{{0.1, 1},   {0.5, 2},   {0.9, 3},
                                 {1.0, 10},  {1.2, 20},  {1.4, 30},
                                 {1.6, 40},  {2.5, 100}, {3.5, 1e6},
                                 {-0.1, 1e6}};
  expect(phase_percentile(three, 3, 50) == 20,
         "window p50s {2, 20, 100} give 20; out-of-range samples ignored");
  expect(phase_percentile(three, 3, 99) == 40,
         "window p99s {3, 40, 100} give 40");
  expect(phase_percentile(three, 2, 50) == 2,
         "an even window count takes the lower middle");
  const std::vector<Timed> misses{{0.2, 1}, {0.3, kInf}, {1.5, 5},
                                  {2.5, 6}};
  expect(phase_percentile(misses, 3, 99) == 6,
         "window p99s {inf, 5, 6} give 6");
  expect(phase_percentile(misses, 3, 50) == 5,
         "window p50s {1, 5, 6} give 5");
  std::vector<Timed> mostly_missed;  // windows 0-2 all misses, 3-4 finite
  for (int w = 0; w < 5; ++w)
    for (int k = 0; k < 4; ++k)
      mostly_missed.push_back({w + 0.1 * k, w < 3 ? kInf : 7.0});
  expect(std::isinf(phase_percentile(mostly_missed, 5, 50)),
         "misses in most windows make the phase p50 inf");
  expect(std::isnan(phase_percentile({}, 3, 50)), "no samples gives NaN");
  expect(window_median({3, std::nan(""), 1, 2}) == 2,
         "empty (NaN) windows are skipped");
  const std::vector<double> goodput =
      window_finite_rate({{0.1, 5}, {0.2, kInf}, {0.7, 3}, {1.9, 4}}, 2.0);
  expect(goodput.size() == 2 && goodput[0] == 2 && goodput[1] == 1,
         "goodput counts only finite latencies, per second of window");

  // SLO latency: finite only for a verified kOk back within the deadline.
  const std::vector<std::int8_t> expected{1, -2, 3, 4};
  Response ok;
  ok.status = Status::kOk;
  ok.executed = true;
  ok.flat_output = true;
  ok.batch_size = 3;
  ok.logits = expected;
  const Reply good = judge(over_the_wire(ok), expected, 1.002);
  expect(!good.failed, "a correct kOk response is not a failure");
  expect(std::abs(slo_latency_us(good, 1.0, 10000) - 2000.0) < 1e-6,
         "latency runs from the due time: 2000 us");
  expect(std::isinf(slo_latency_us(good, 1.0, 1000)),
         "a kOk response past its deadline counts as inf");
  Response shed;
  shed.status = Status::kDeadlineMissed;
  const Reply shed_reply = judge(over_the_wire(shed), expected, 1.0);
  expect(!shed_reply.failed, "a shed request is an SLO miss, not a failure");
  expect(std::isinf(slo_latency_us(shed_reply, 1.0, 10000)),
         "a shed request counts as inf");
  for (const Status s : {Status::kRejectedQueueFull, Status::kRejectedQuota}) {
    Response refused;
    refused.status = s;
    const Reply r = judge(over_the_wire(refused), expected, 1.0);
    expect(!r.failed, "a refused request is an SLO miss, not a failure");
    expect(std::isinf(slo_latency_us(r, 1.0, 10000)),
           "a refused request counts as inf");
  }
  expect(std::isinf(slo_latency_us(Reply{}, 0.0, 10000)),
         "a missing response counts as inf");

  // Failures: wrong logits, errors, and kOk without execution.
  Response corrupted = ok;
  corrupted.logits[2] ^= 0x10;
  const Reply bad = judge(over_the_wire(corrupted), expected, 1.001);
  expect(bad.failed, "a corrupted-logit response is a failed op");
  expect(std::isinf(slo_latency_us(bad, 1.0, 10000)),
         "a failed op counts as inf");
  Response error;
  error.status = Status::kError;
  error.error = "boom";
  expect(judge(over_the_wire(error), expected, 1.0).failed,
         "a kError response is a failed op");
  Response hollow;
  hollow.status = Status::kOk;
  expect(judge(over_the_wire(hollow), expected, 1.0).failed,
         "a kOk response that never executed is a failed op");

  if (failures == 0) std::fprintf(stderr, "selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace bench
