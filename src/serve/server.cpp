#include "serve/server.hpp"

#include <algorithm>
#include <exception>
#include <string>
#include <utility>

#include "core/simd.hpp"
#include "util/check.hpp"

namespace tsca::serve {

Server::Server(driver::ProgramRegistry& registry, std::string default_model,
               ServerOptions options)
    : registry_(registry),
      default_model_(std::move(default_model)),
      // Lease the default model for the server's lifetime: it compiles here
      // (startup, never request latency) and can never be evicted out from
      // under program() or a default-routed batch.
      default_handle_(registry.acquire(default_model_)),
      options_(options),
      metrics_(options.metrics != nullptr ? options.metrics : &own_metrics_),
      epoch_(Clock::now()),
      queue_(options.queue_capacity, options.fair_share),
      scheduler_(queue_, options.batch, *metrics_, options.trace, epoch_) {
  TSCA_CHECK(options_.workers >= 1, "workers=" << options_.workers);
  // Pin the kernel backend the fast path will serve with into the metrics
  // (as "serve.simd.<name>" = lane width), so a metrics dump names the
  // dispatch outcome next to the latency numbers it produced.
  metrics_
      ->counter(std::string("serve.simd.") + core::simd::backend_name())
      .add(core::simd::backend().width);
  // Resolve the fixed completion-path metric handles once; the registry's
  // find-or-create handles are stable for its lifetime, so workers record
  // through plain pointers with no name assembly or registry lock.
  sm_.completed = &metrics_->counter("serve.completed");
  sm_.deadline_missed = &metrics_->counter("serve.deadline_missed");
  sm_.late_executions = &metrics_->counter("serve.late_executions");
  sm_.executed = &metrics_->counter("serve.executed");
  sm_.cancelled = &metrics_->counter("serve.cancelled");
  sm_.cancelled_by_client = &metrics_->counter("serve.cancelled_by_client");
  sm_.exec_errors = &metrics_->counter("serve.exec_errors");
  sm_.latency_us = &metrics_->histogram("serve.latency_us");
  sm_.queued_us = &metrics_->histogram("serve.queued_us");
  sm_.exec_us = &metrics_->histogram("serve.exec_us");
  sm_.arena_bytes = &metrics_->histogram("serve.worker.arena_bytes");
  sm_.scratch_bytes = &metrics_->histogram("serve.worker.scratch_bytes");
  // Stage the default model's weight image into every worker context up
  // front: part of server startup, never of any request's latency.
  contexts_.reserve(static_cast<std::size_t>(options_.workers));
  for (int w = 0; w < options_.workers; ++w) {
    contexts_.push_back(std::make_unique<driver::AcceleratorPool::Context>(
        registry.config(), options_.dram_bytes));
    contexts_.back()->worker = w;
    stage_program_in_context(*contexts_.back(), program());
  }
  threads_.reserve(contexts_.size());
  for (int w = 0; w < options_.workers; ++w)
    threads_.emplace_back([this, w] { worker_loop(w); });
}

Server::~Server() { stop(); }

std::uint64_t Server::admit(nn::FeatureMapI8 input, const SubmitOptions& opts,
                            std::function<void(Response&&)> on_complete,
                            std::future<Response>* future_out) {
  TSCA_CHECK(opts.priority >= 0, "priority=" << opts.priority);
  Pending p;
  p.request.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  p.request.input = std::move(input);
  p.request.submitted = Clock::now();
  if (opts.deadline_us >= 0)
    p.request.deadline =
        p.request.submitted + std::chrono::microseconds(opts.deadline_us);
  p.request.priority = opts.priority;
  p.request.client_id = opts.client_id;
  p.request.cycle_budget = opts.cycle_budget;
  p.on_complete = std::move(on_complete);
  if (future_out != nullptr) *future_out = p.promise.get_future();
  const std::uint64_t id = p.request.id;
  metrics_->counter("serve.submitted").add(1);

  // Model routing, resolved here at admission so every queued request
  // carries a concrete id and batches stay single-model.
  std::string model_id = opts.model_id.empty() ? default_model_ : opts.model_id;
  if (!registry_.has_model(model_id)) {
    Response r;
    r.id = id;
    r.status = Status::kRejectedUnknownModel;
    metrics_->counter("serve.rejected_unknown_model").add(1);
    if (options_.trace != nullptr)
      options_.trace->track("serve/requests")
          .complete("req " + std::to_string(r.id), "rejected",
                    static_cast<std::uint64_t>(
                        us_between(epoch_, p.request.submitted)),
                    0, {{"unknown_model", 1}});
    complete(p, std::move(r));
    return id;
  }
  p.request.model_id = std::move(model_id);

  std::optional<Pending> evicted;
  const Admit admit = queue_.push(std::move(p), &evicted);
  if (evicted) {
    // Fair share made room by evicting an over-share client's entry; the
    // victim completes here, on the pusher's thread, as kRejectedQuota.
    Response r;
    r.id = evicted->request.id;
    r.status = Status::kRejectedQuota;
    r.latency.queued_us = us_between(evicted->request.submitted, Clock::now());
    metrics_->counter("serve.rejected_quota").add(1);
    if (options_.trace != nullptr)
      options_.trace->track("serve/requests")
          .complete("req " + std::to_string(r.id), "evicted",
                    static_cast<std::uint64_t>(
                        us_between(epoch_, evicted->request.submitted)),
                    static_cast<std::uint64_t>(r.latency.queued_us),
                    {{"client", static_cast<std::int64_t>(
                                    evicted->request.client_id)}});
    complete(*evicted, std::move(r));
  }
  if (admit == Admit::kAdmitted) {
    metrics_->counter("serve.admitted").add(1);
    metrics_
        ->counter("serve.class" + std::to_string(opts.priority) + ".admitted")
        .add(1);
    return id;
  }
  // Rejected: `p` was not consumed — complete it here, with the reason.
  Response r;
  r.id = id;
  r.status = admit == Admit::kQueueFull ? Status::kRejectedQueueFull
                                        : Status::kRejectedShutdown;
  metrics_->counter(admit == Admit::kQueueFull ? "serve.rejected_queue_full"
                                               : "serve.rejected_shutdown")
      .add(1);
  if (options_.trace != nullptr)
    options_.trace->track("serve/requests")
        .complete("req " + std::to_string(r.id), "rejected",
                  static_cast<std::uint64_t>(
                      us_between(epoch_, p.request.submitted)),
                  0, {{"queue_full", admit == Admit::kQueueFull ? 1 : 0}});
  complete(p, std::move(r));
  return id;
}

std::future<Response> Server::submit(nn::FeatureMapI8 input,
                                     std::int64_t deadline_us) {
  SubmitOptions opts;
  opts.deadline_us = deadline_us;
  return submit(std::move(input), opts);
}

std::future<Response> Server::submit(nn::FeatureMapI8 input,
                                     const SubmitOptions& opts) {
  std::future<Response> future;
  admit(std::move(input), opts, nullptr, &future);
  return future;
}

std::uint64_t Server::submit_with(nn::FeatureMapI8 input,
                                  const SubmitOptions& opts,
                                  std::function<void(Response&&)> on_complete) {
  TSCA_CHECK(on_complete != nullptr, "submit_with requires a callback");
  return admit(std::move(input), opts, std::move(on_complete), nullptr);
}

bool Server::take_cancel_mark(std::uint64_t id) {
  const std::lock_guard<std::mutex> lock(cancel_m_);
  if (cancel_marks_.erase(id) == 0) return false;
  cancel_mark_count_.store(static_cast<int>(cancel_marks_.size()),
                           std::memory_order_relaxed);
  return true;
}

bool Server::cancel(std::uint64_t id) {
  if (std::optional<Pending> p = queue_.take(id)) {
    Response r;
    r.id = id;
    r.status = Status::kCancelled;
    r.latency.queued_us = us_between(p->request.submitted, Clock::now());
    metrics_->counter("serve.cancelled").add(1);
    metrics_->counter("serve.cancelled_by_client").add(1);
    if (options_.trace != nullptr)
      options_.trace->track("serve/requests")
          .complete("req " + std::to_string(id), "cancelled",
                    static_cast<std::uint64_t>(
                        us_between(epoch_, p->request.submitted)),
                    static_cast<std::uint64_t>(r.latency.queued_us));
    complete(*p, std::move(r));
    return true;
  }
  // Already dispatched (or unknown): leave a mark for the worker's
  // last-chance check.  Best effort — a request already executing runs to
  // completion, and its stale mark is dropped after the batch (ids are
  // never reused, so a stale mark can't hit a future request).
  const std::lock_guard<std::mutex> lock(cancel_m_);
  cancel_marks_.insert(id);
  cancel_mark_count_.store(static_cast<int>(cancel_marks_.size()),
                           std::memory_order_relaxed);
  return false;
}

Server::ReqMetrics& Server::class_metrics(WorkerState& state, int priority) {
  const auto it = state.classes.find(priority);
  if (it != state.classes.end()) return it->second;
  const std::string cls = "serve.class" + std::to_string(priority);
  ReqMetrics m;
  m.completed = &metrics_->counter(cls + ".completed");
  m.deadline_missed = &metrics_->counter(cls + ".deadline_missed");
  m.latency_us = &metrics_->histogram(cls + ".latency_us");
  return state.classes.emplace(priority, m).first->second;
}

Server::ReqMetrics& Server::model_metrics(WorkerState& state,
                                          const std::string& model_id) {
  const auto it = state.models.find(model_id);
  if (it != state.models.end()) return it->second;
  const std::string mdl = "serve.model." + model_id;
  ReqMetrics m;
  m.completed = &metrics_->counter(mdl + ".completed");
  m.deadline_missed = &metrics_->counter(mdl + ".deadline_missed");
  m.latency_us = &metrics_->histogram(mdl + ".latency_us");
  return state.models.emplace(model_id, m).first->second;
}

void Server::worker_loop(int w) {
  driver::AcceleratorPool::Context& ctx =
      *contexts_[static_cast<std::size_t>(w)];
  // One Runtime for the worker's lifetime (the heart of the zero-allocation
  // warm path): its scratch arenas — conv planes, recycled feature maps, FC
  // double buffers — grow to the program's largest layer once, presized
  // below, and every subsequent batch reuses them.  The runtime adopts the
  // residency the constructor staged into this worker's context.
  driver::RuntimeOptions ropts;
  ropts.mode = options_.mode;
  ropts.trace = options_.trace;
  ropts.metrics = metrics_;
  ropts.trace_scope = "serve/worker" + std::to_string(w) + "/";
  ropts.cancel = &cancel_;
  driver::Runtime runtime(ctx.acc, ctx.dram, ctx.dma, ropts);
  runtime.adopt_staged_program(ctx.staged_stamp, ctx.ddr_floor);
  runtime.set_trace_clock(ctx.trace_clock);
  runtime.reserve_warm_scratch(program(), options_.batch.max_batch);
  WorkerState state;
  for (;;) {
    std::vector<Pending> batch = scheduler_.next_batch();
    if (batch.empty()) return;  // queue closed
    execute_batch(w, ctx, runtime, state, std::move(batch));
  }
}

void Server::execute_batch(int w, driver::AcceleratorPool::Context& ctx,
                           driver::Runtime& runtime, WorkerState& state,
                           std::vector<Pending> batch) {
  const TimePoint exec_start = Clock::now();
  // Last-chance pass: a deadline can expire — and a client cancel can land —
  // between the scheduler's check and the batch reaching this worker.
  // Compacts in place: survivors slide down over the completed slots, so the
  // pass allocates nothing.
  const bool client_cancels =
      cancel_mark_count_.load(std::memory_order_relaxed) > 0;
  if (options_.batch.cancel_expired || client_cancels) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      Pending& p = batch[i];
      if (client_cancels && take_cancel_mark(p.request.id)) {
        Response r;
        r.id = p.request.id;
        r.status = Status::kCancelled;
        r.latency.queued_us = us_between(p.request.submitted, p.dispatched);
        r.latency.batch_us = us_between(p.dispatched, exec_start);
        sm_.cancelled->add(1);
        sm_.cancelled_by_client->add(1);
        complete(p, std::move(r));
        continue;
      }
      if (should_shed(options_.batch, p.request, exec_start)) {
        complete_expired(p, exec_start, *metrics_, options_.trace, epoch_);
        continue;
      }
      if (kept != i) batch[kept] = std::move(batch[i]);
      ++kept;
    }
    batch.resize(kept);
    if (batch.empty()) return;
  }

  // Lease the batch's program (the queue guarantees the batch is
  // single-model) and restage this worker's context when the staged stamp
  // differs — first touch of the model on this worker, or a recompile after
  // eviction invalidated what was resident.  An acquire failure (a model
  // evicted from the registry's catalog is impossible today, but a budget
  // infeasibility is not) fails the batch, never the server.
  driver::ProgramHandle lease;
  try {
    lease = registry_.acquire(batch.front().request.model_id);
  } catch (...) {
    metrics_->counter("serve.exec_errors").add(1);
    for (Pending& p : batch) complete_error(p, std::current_exception());
    return;
  }
  const driver::NetworkProgram& program = lease.program();
  if (ctx.staged_stamp != program.stamp()) {
    stage_program_in_context(ctx, program);
    metrics_->counter("serve.model_restage").add(1);
    // A model switch also re-sizes the warm scratch (no-op when this
    // program is smaller than anything the runtime has already served).
    runtime.reserve_warm_scratch(program, options_.batch.max_batch);
  }
  // The persistent runtime must track whichever residency the context
  // holds before it runs this batch's program.
  runtime.adopt_staged_program(ctx.staged_stamp, ctx.ddr_floor);

  // Whatever happens below — success, stop()-cancellation, a budget
  // abort, a typed validation error — the context must absorb the
  // simulated cycles the runtime burned before the throw, or the next
  // run on this worker rewinds the clock and its trace spans overlap
  // this batch's.
  struct ClockGuard {
    driver::AcceleratorPool::Context& ctx;
    driver::Runtime& runtime;
    ~ClockGuard() { ctx.trace_clock = runtime.trace_clock(); }
  } clock_guard{ctx, runtime};

  // Per-batch staging draws from the worker's arena: reset is O(1) and
  // frees nothing, so once the arena has grown to the largest batch's
  // footprint these vectors cost zero allocations.
  state.arena.reset();
  using FmPtrVec = std::vector<const nn::FeatureMapI8*,
                               core::ArenaAllocator<const nn::FeatureMapI8*>>;
  FmPtrVec inputs{core::ArenaAllocator<const nn::FeatureMapI8*>(
      &state.arena)};

  driver::BatchNetworkRun result;
  for (;;) {
    // The batch is the execution unit, so its strictest member's cycle
    // budget governs the run — but only that member pays for a budget
    // abort.  Batches form across clients and SLO classes, so on
    // BudgetExceeded the requests that imposed the governing budget fail
    // alone and the rest of the batch re-runs: one client submitting
    // cycle_budget=1 requests cannot poison its co-batched neighbors.
    std::uint64_t budget = 0;
    for (const Pending& p : batch)
      if (p.request.cycle_budget != 0)
        budget = budget == 0 ? p.request.cycle_budget
                             : std::min(budget, p.request.cycle_budget);
    runtime.set_cycle_budget(budget);

    // Request payloads are staged by pointer — never copied, never moved —
    // into the batch-order table run_network_batch consumes.
    inputs.clear();
    inputs.reserve(batch.size());
    for (const Pending& p : batch) inputs.push_back(&p.request.input);

    try {
      result = runtime.run_network_batch(program, inputs.data(),
                                         inputs.size());
      break;
    } catch (const driver::RequestCancelled&) {
      for (Pending& p : batch) {
        Response r;
        r.id = p.request.id;
        r.status = Status::kCancelled;
        r.latency.queued_us = us_between(p.request.submitted, p.dispatched);
        r.latency.batch_us = us_between(p.dispatched, exec_start);
        r.latency.exec_us = us_between(exec_start, Clock::now());
        sm_.cancelled->add(1);
        complete(p, std::move(r));
      }
      return;
    } catch (const driver::BudgetExceeded&) {
      sm_.exec_errors->add(1);
      metrics_->counter("serve.budget_exceeded").add(1);
      const std::exception_ptr err = std::current_exception();
      std::size_t kept = 0;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        Pending& p = batch[i];
        if (p.request.cycle_budget != 0 && p.request.cycle_budget == budget) {
          complete_error(p, err);
          continue;
        }
        if (kept != i) batch[kept] = std::move(batch[i]);
        ++kept;
      }
      // budget == 0 never throws BudgetExceeded, so some request always
      // matched above — but never risk re-running an unshrunk batch.
      if (kept == batch.size()) {
        for (Pending& p : batch) complete_error(p, err);
        return;
      }
      batch.resize(kept);
      if (batch.empty()) return;
    } catch (...) {
      // Execution failed some other way (bad input shape, ...): the error
      // belongs to the submitters — the original exception through
      // in-process futures, a kError Response on the callback path.
      sm_.exec_errors->add(1);
      for (Pending& p : batch) complete_error(p, std::current_exception());
      return;
    }
  }

  const TimePoint exec_end = Clock::now();
  const int batch_size = static_cast<int>(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Pending& p = batch[i];
    Response r;
    r.id = p.request.id;
    r.executed = true;
    r.batch_size = batch_size;
    r.logits = std::move(result.requests[i].logits);
    r.final_fm = std::move(result.requests[i].final_fm);
    r.flat_output = result.requests[i].flat_output;
    r.latency.queued_us = us_between(p.request.submitted, p.dispatched);
    r.latency.batch_us = us_between(p.dispatched, exec_start);
    r.latency.exec_us = us_between(exec_start, exec_end);
    const bool late = exec_end > p.request.deadline;
    r.status = late ? Status::kDeadlineMissed : Status::kOk;
    // All through handles resolved at startup or cached on the class/model's
    // first completion — the warm path assembles no metric names.
    ReqMetrics& cls = class_metrics(state, p.request.priority);
    (late ? sm_.deadline_missed : sm_.completed)->add(1);
    (late ? cls.deadline_missed : cls.completed)->add(1);
    if (late) sm_.late_executions->add(1);
    sm_.executed->add(1);
    // Per-model serving metrics: admission resolved every request to a
    // concrete model id.
    ReqMetrics& mdl = model_metrics(state, p.request.model_id);
    (late ? mdl.deadline_missed : mdl.completed)->add(1);
    mdl.latency_us->observe(r.latency.total_us());
    sm_.latency_us->observe(r.latency.total_us());
    cls.latency_us->observe(r.latency.total_us());
    sm_.queued_us->observe(r.latency.queued_us);
    sm_.exec_us->observe(r.latency.exec_us);
    if (options_.trace != nullptr)
      options_.trace->track("serve/requests")
          .complete("req " + std::to_string(r.id), late ? "late" : "request",
                    static_cast<std::uint64_t>(
                        us_between(epoch_, p.request.submitted)),
                    static_cast<std::uint64_t>(r.latency.total_us()),
                    {{"batch", batch_size}, {"worker", w}});
    complete(p, std::move(r));
  }
  if (options_.trace != nullptr)
    options_.trace->track("serve/worker" + std::to_string(w) + "/batches")
        .complete("batch x" + std::to_string(batch_size), "batch",
                  static_cast<std::uint64_t>(us_between(epoch_, exec_start)),
                  static_cast<std::uint64_t>(us_between(exec_start, exec_end)),
                  {{"batch", batch_size}});
  // Warm-path footprint observability: the arena's high-water mark is this
  // worker's whole per-batch staging footprint; the scratch bytes are the
  // runtime's persistent reusable storage.
  sm_.arena_bytes->observe(static_cast<std::int64_t>(state.arena.high_water()));
  sm_.scratch_bytes->observe(
      static_cast<std::int64_t>(runtime.warm_scratch_bytes()));
  // A cancel that raced with execution left its mark unconsumed; drop the
  // marks of everything this batch completed so the set stays bounded.
  if (cancel_mark_count_.load(std::memory_order_relaxed) > 0) {
    const std::lock_guard<std::mutex> lock(cancel_m_);
    for (const Pending& p : batch) cancel_marks_.erase(p.request.id);
    cancel_mark_count_.store(static_cast<int>(cancel_marks_.size()),
                             std::memory_order_relaxed);
  }
}

void Server::stop() {
  if (stopped_.exchange(true)) return;
  cancel_.store(true, std::memory_order_relaxed);
  queue_.close();
  for (std::thread& t : threads_) t.join();
  // The backlog never reached a worker; cancel it.
  for (Pending& p : queue_.drain()) {
    Response r;
    r.id = p.request.id;
    r.status = Status::kCancelled;
    r.latency.queued_us = us_between(p.request.submitted, Clock::now());
    metrics_->counter("serve.cancelled").add(1);
    complete(p, std::move(r));
  }
  {
    const std::lock_guard<std::mutex> lock(cancel_m_);
    cancel_marks_.clear();
    cancel_mark_count_.store(0, std::memory_order_relaxed);
  }
}

}  // namespace tsca::serve
