// Dynamic-batching scheduler: coalesces queued requests into batches.
//
// Sits between the RequestQueue and the Server's workers.  Each worker calls
// next_batch(), which blocks on the queue's batch-formation wait
// (max_batch / max_queue_delay_us), pops in deadline order, and — before the
// batch ever reaches an execution context — sheds requests whose deadline
// already passed, completing them as kDeadlineMissed.  Cancelling expired
// work *before* execution, not after, is the scheduler's whole contribution
// to goodput under overload: a worker never burns a network pass on a
// request nobody is waiting for anymore.
//
// EDF (earliest deadline first) ordering is the deadline-aware policy; FIFO
// with max_batch=1 and shedding off reproduces the naive baseline the bench
// compares against.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/request_queue.hpp"

namespace tsca::serve {

struct BatchPolicy {
  int max_batch = 8;                     // coalesce at most this many
  std::int64_t max_queue_delay_us = 1000;  // flush a partial batch after this
  bool edf = true;             // earliest-deadline-first; false = FIFO
  bool cancel_expired = true;  // shed already-expired requests pre-execution
  // Feasibility horizon: also shed requests whose deadline is closer than
  // this (they cannot complete in time once the batch's service time is
  // paid, so executing them can only produce late responses).  0 = shed on
  // hard expiry only.  Callers set it to their expected batch service time.
  std::int64_t min_slack_us = 0;
};

class BatchScheduler {
 public:
  // The queue and registry (and recorder, when given) must outlive the
  // scheduler.  `epoch` anchors the wall-µs serve spans of shed requests.
  BatchScheduler(RequestQueue& queue, const BatchPolicy& policy,
                 obs::MetricsRegistry& metrics, obs::Recorder* trace = nullptr,
                 TimePoint epoch = {});

  // Blocks until a batch of live requests is ready; stamps each request's
  // `dispatched` time.  Returns empty exactly when the queue is closed.
  std::vector<Pending> next_batch();

  const BatchPolicy& policy() const { return policy_; }

 private:
  RequestQueue& queue_;
  BatchPolicy policy_;
  obs::MetricsRegistry& metrics_;
  obs::Recorder* trace_;
  TimePoint epoch_;
};

// The shed rule, stated once: with shedding on, a request whose deadline
// falls before now + min_slack_us cannot finish in time, so it is shed
// rather than executed.  kNoDeadline (TimePoint::max) never qualifies.
// next_batch applies it at dispatch and the Server's workers again at their
// last-chance pass.
inline bool should_shed(const BatchPolicy& policy, const Request& request,
                        TimePoint now) {
  return policy.cancel_expired &&
         request.deadline <
             now + std::chrono::microseconds(policy.min_slack_us);
}

// Completes a pending request as expired-before-execution: kDeadlineMissed
// response with pre-execution latency only, the deadline-miss/shed counters,
// and (when `trace` is given) a "shed" span on the serve/requests track.
// Shared by the scheduler and the worker-side last-chance check (a deadline
// can expire in the hand-off race between the two).
void complete_expired(Pending& p, TimePoint now, obs::MetricsRegistry& metrics,
                      obs::Recorder* trace, TimePoint epoch);

}  // namespace tsca::serve
