#include "serve/batch_scheduler.hpp"

#include <string>
#include <utility>

#include "util/check.hpp"

namespace tsca::serve {

BatchScheduler::BatchScheduler(RequestQueue& queue, const BatchPolicy& policy,
                               obs::MetricsRegistry& metrics,
                               obs::Recorder* trace, TimePoint epoch)
    : queue_(queue),
      policy_(policy),
      metrics_(metrics),
      trace_(trace),
      epoch_(epoch) {
  TSCA_CHECK(policy.max_batch >= 1, "max_batch=" << policy.max_batch);
}

void complete_expired(Pending& p, TimePoint now, obs::MetricsRegistry& metrics,
                      obs::Recorder* trace, TimePoint epoch) {
  Response r;
  r.id = p.request.id;
  r.status = Status::kDeadlineMissed;
  // Never executed: the only latency it accrued is queueing (plus the
  // dispatch hand-off when the worker was the one to shed it).
  const bool dispatched = p.dispatched != TimePoint{};
  r.latency.queued_us =
      us_between(p.request.submitted, dispatched ? p.dispatched : now);
  if (dispatched) r.latency.batch_us = us_between(p.dispatched, now);
  metrics.counter("serve.deadline_missed").add(1);
  metrics.counter("serve.expired_shed").add(1);
  metrics.counter("serve.class" + std::to_string(p.request.priority) + ".shed")
      .add(1);
  metrics.histogram("serve.queued_us").observe(r.latency.queued_us);
  if (trace != nullptr)
    trace->track("serve/requests")
        .complete("req " + std::to_string(r.id), "shed",
                  static_cast<std::uint64_t>(
                      us_between(epoch, p.request.submitted)),
                  static_cast<std::uint64_t>(r.latency.total_us()));
  complete(p, std::move(r));
}

std::vector<Pending> BatchScheduler::next_batch() {
  for (;;) {
    std::vector<Pending> batch =
        queue_.pop_wait(static_cast<std::size_t>(policy_.max_batch),
                        policy_.max_queue_delay_us, policy_.edf);
    if (batch.empty()) return {};  // queue closed

    const TimePoint now = Clock::now();
    std::vector<Pending> live;
    live.reserve(batch.size());
    for (Pending& p : batch) {
      p.dispatched = now;
      if (should_shed(policy_, p.request, now)) {
        complete_expired(p, now, metrics_, trace_, epoch_);
        continue;
      }
      live.push_back(std::move(p));
    }
    if (live.empty()) continue;  // whole batch was dead — form another

    metrics_.counter("serve.batches").add(1);
    metrics_.histogram("serve.batch_size")
        .observe(static_cast<std::int64_t>(live.size()));
    metrics_.histogram("serve.queue_depth")
        .observe(static_cast<std::int64_t>(queue_.size()));
    return live;
  }
}

}  // namespace tsca::serve
