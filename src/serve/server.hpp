// Inference server over a driver::ProgramRegistry: requests are routed by
// model_id to compiled NetworkPrograms (one model or many).
//
// The serving pipeline end to end: submit() admits a request into the
// bounded RequestQueue (or rejects it immediately — queue full / shutdown /
// fair-share eviction — with the reason in the Response), a BatchScheduler
// coalesces queued requests into dynamic batches (strict priority across
// SLO classes, EDF within a class, expired requests shed before execution),
// and N worker threads each own a private accelerator context
// (AcceleratorPool::Context with the default model's weight image staged at
// startup) and execute batches through Runtime::run_network_batch —
// ExecMode::kFast by default, the cycle engine selectable for
// statistics-grade serving.
//
// Every submitted request completes exactly once, whatever happens:
// executed (kOk, or kDeadlineMissed when it finished late), shed
// (kDeadlineMissed, never executed), rejected at admission, evicted for
// fair share (kRejectedQuota), cancelled by the client (cancel()) or by
// stop(), or failed (the execution exception through the future, or a
// kError Response on the callback path).  In-process submitters hold a
// std::future<Response>; the socket front-end uses submit_with() and gets
// the Response through a completion callback instead (invoked on a worker
// thread).  stop() is cooperative and prompt: it raises the cancel flag
// (in-flight batches abort between network steps), closes the queue, joins
// the workers, and completes the backlog as kCancelled.
//
// Time domains: serving spans on the "serve/..." tracks are host wall-clock
// microseconds since the server's epoch; the workers' runtime-layer tracks
// ("serve/worker<w>/...") stay in simulated cycles like every other runtime
// trace.  The two share a Recorder but never a track.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/arena.hpp"
#include "driver/accelerator_pool.hpp"
#include "driver/program.hpp"
#include "driver/program_registry.hpp"
#include "driver/runtime.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/batch_scheduler.hpp"
#include "serve/request_queue.hpp"

namespace tsca::serve {

struct ServerOptions {
  int workers = 1;
  std::size_t queue_capacity = 64;  // admission bound (reject when full)
  // Fair-share admission: when the queue is full, an under-share client's
  // push evicts an over-share client's entry (kRejectedQuota) instead of
  // bouncing off kQueueFull.  Identity is Request::client_id (the socket
  // front-end stamps the connection).  Single-client behaviour is identical
  // to a plain bounded queue.
  bool fair_share = true;
  BatchPolicy batch;
  driver::ExecMode mode = driver::ExecMode::kFast;
  std::size_t dram_bytes = 64u << 20;  // per-worker context DDR
  // Optional observability.  Metrics are always collected: when `metrics` is
  // null the server records into a registry it owns (metrics() returns
  // whichever is in use).
  obs::Recorder* trace = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

class Server {
 public:
  // Requests are routed by SubmitOptions::model_id (empty picks
  // `default_model`); unknown ids are rejected at admission with
  // Status::kRejectedUnknownModel.  Batches are single-model (the queue
  // never mixes models into one batch); a worker leases the batch's program
  // from the registry and restages its context when the staged stamp
  // differs (first touch, or a recompile after eviction).  The default model
  // is acquired for the server's lifetime — compiled and staged into every
  // worker context before any worker starts — so it can never be evicted
  // out from under program().  The registry must outlive the server.
  // Throws UnknownModelError when `default_model` was never added.
  Server(driver::ProgramRegistry& registry, std::string default_model,
         ServerOptions options = {});
  ~Server();  // stop()
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Submits one inference request.  `deadline_us` is relative to now;
  // negative means no deadline.  Always returns a future that will be
  // completed — rejections complete it before submit() returns.
  std::future<Response> submit(nn::FeatureMapI8 input,
                               std::int64_t deadline_us = -1);
  std::future<Response> submit(nn::FeatureMapI8 input,
                               const SubmitOptions& opts);

  // Callback-path submission (the socket front-end): `on_complete` receives
  // the Response exactly once — possibly before submit_with returns
  // (rejection), possibly on a worker thread.  Returns the request id,
  // usable with cancel().
  std::uint64_t submit_with(nn::FeatureMapI8 input, const SubmitOptions& opts,
                            std::function<void(Response&&)> on_complete);

  // Client-initiated cancellation.  A still-queued request completes as
  // kCancelled immediately (returns true).  A dispatched request is
  // cancelled best-effort at the worker's last-chance check (returns
  // false); one already executing runs to completion — its batch cannot be
  // unwound per request.
  bool cancel(std::uint64_t id);

  // Stops serving: aborts in-flight batches between network steps, rejects
  // new submissions (kRejectedShutdown), completes the queued backlog as
  // kCancelled, joins the workers.  Idempotent.
  void stop();

  obs::MetricsRegistry& metrics() { return *metrics_; }
  // The default model's program (pinned by a held lease for the server's
  // life).
  const driver::NetworkProgram& program() const {
    return default_handle_.program();
  }
  const std::string& default_model() const { return default_model_; }
  const ServerOptions& options() const { return options_; }
  TimePoint epoch() const { return epoch_; }

 private:
  // Completion-path metric handles for one SLO class or one model, resolved
  // once and reused so the warm path never assembles metric name strings.
  struct ReqMetrics {
    obs::Counter* completed = nullptr;
    obs::Counter* deadline_missed = nullptr;
    obs::Histogram* latency_us = nullptr;
  };

  // Per-worker serving state that persists across batches (DESIGN.md §15).
  // The arena backs per-batch staging (the input-pointer table) and is
  // reset between batches — O(1), no free — so its high-water mark is the
  // worker's whole per-batch footprint.  The metric caches fill lazily on
  // each class/model's first completion.  Touched only by the owning
  // worker thread; the worker's Runtime lives on worker_loop's stack.
  struct WorkerState {
    core::Arena arena;
    std::unordered_map<int, ReqMetrics> classes;
    std::unordered_map<std::string, ReqMetrics> models;
  };

  // Fixed serving metrics, resolved once at construction: handles are
  // stable for the registry's lifetime, so the per-request completion path
  // is pure atomic adds.
  struct ServeMetrics {
    obs::Counter* completed = nullptr;
    obs::Counter* deadline_missed = nullptr;
    obs::Counter* late_executions = nullptr;
    obs::Counter* executed = nullptr;
    obs::Counter* cancelled = nullptr;
    obs::Counter* cancelled_by_client = nullptr;
    obs::Counter* exec_errors = nullptr;
    obs::Histogram* latency_us = nullptr;
    obs::Histogram* queued_us = nullptr;
    obs::Histogram* exec_us = nullptr;
    obs::Histogram* arena_bytes = nullptr;
    obs::Histogram* scratch_bytes = nullptr;
  };

  void worker_loop(int w);
  // Builds the Pending, stamps id/times, admits it into the queue and
  // completes it on the spot when rejected/evicting.
  std::uint64_t admit(nn::FeatureMapI8 input, const SubmitOptions& opts,
                      std::function<void(Response&&)> on_complete,
                      std::future<Response>* future_out);
  // Runs one batch on worker w's persistent runtime over its private
  // context; completes every request in it.
  void execute_batch(int w, driver::AcceleratorPool::Context& ctx,
                     driver::Runtime& runtime, WorkerState& state,
                     std::vector<Pending> batch);
  ReqMetrics& class_metrics(WorkerState& state, int priority);
  ReqMetrics& model_metrics(WorkerState& state, const std::string& model_id);
  // Consumes a pending client-cancel mark for `id`.
  bool take_cancel_mark(std::uint64_t id);

  driver::ProgramRegistry& registry_;
  std::string default_model_;
  driver::ProgramHandle default_handle_;
  ServerOptions options_;
  obs::MetricsRegistry own_metrics_;
  obs::MetricsRegistry* metrics_;  // options_.metrics or &own_metrics_
  ServeMetrics sm_;                // resolved against *metrics_ at startup
  TimePoint epoch_;
  RequestQueue queue_;
  BatchScheduler scheduler_;
  std::vector<std::unique_ptr<driver::AcceleratorPool::Context>> contexts_;
  std::vector<std::thread> threads_;
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<bool> cancel_{false};
  std::atomic<bool> stopped_{false};
  // Client-cancel marks for requests already dispatched to a worker,
  // consumed at the last-chance check.  The atomic count gates the lock so
  // the common no-cancellation path never takes it.
  std::mutex cancel_m_;
  std::unordered_set<std::uint64_t> cancel_marks_;
  std::atomic<int> cancel_mark_count_{0};
};

}  // namespace tsca::serve
