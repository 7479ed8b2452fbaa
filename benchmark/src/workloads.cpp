#include "workloads.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <thread>

#include "core/accelerator.hpp"
#include "driver/compile_cache.hpp"
#include "driver/program.hpp"
#include "driver/program_registry.hpp"
#include "driver/runtime.hpp"
#include "ledger.hpp"
#include "models.hpp"
#include "report.hpp"
#include "serve/net_server.hpp"
#include "serve/server.hpp"
#include "sim/dma.hpp"
#include "sim/dram.hpp"
#include "stats.hpp"
#include "util/rng.hpp"
#include "wire.hpp"

namespace bench {

namespace {

using namespace tsca;
using serve::Status;

// --- Serving configuration shared by the socket workloads --------------
constexpr int kWorkers = 2;
constexpr std::size_t kQueueCapacity = 64;
constexpr int kMaxBatch = 8;
constexpr std::int64_t kBatchDelayUs = 500;

// Traced runs record spans for every kTraceEvery-th measured request or
// call, which bounds the trace file without skewing any layer.
constexpr int kTraceEvery = 4;
// run_network_batch calls per model in a socket workload's ledger pass:
// enough that µs-truncated layer times sum to a stable figure.
constexpr int kLedgerCalls = 1000;
// A slice whose generator ran later than this at p99 did not offer the
// load it claims, and one whose reader took longer than this at p99 to
// pick up a readable response charged client delay to the server; either
// marks the run invalid.
constexpr double kMaxClientDelayUs = 1000.0;

serve::ServerOptions serving_options() {
  serve::ServerOptions o;
  o.workers = kWorkers;
  o.queue_capacity = kQueueCapacity;
  o.mode = driver::ExecMode::kFast;
  o.batch.max_batch = kMaxBatch;
  o.batch.max_queue_delay_us = kBatchDelayUs;
  o.batch.edf = true;
  o.batch.cancel_expired = true;
  o.batch.min_slack_us = 0;
  return o;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double median_of(const std::vector<double>& v) {
  return nearest_rank(v, 50);
}

void write_array(JsonWriter& j, const char* key,
                 const std::vector<double>& values) {
  j.key(key).begin_array();
  for (const double v : values) j.value(v);
  j.end_array();
}

// Cold starts and the ops they spent.
struct ColdStarts {
  std::vector<double> setup_s;
  std::map<std::string, std::vector<double>> compile_ms;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  void write(JsonWriter& j) const {
    write_array(j, "setup_s", setup_s);
    j.key("compile_ms").begin_object();
    for (const auto& [id, ms] : compile_ms) j.key(id).value(median_of(ms));
    j.end_object();
  }
  void add_layer_metrics(std::map<std::string, double>& layer) const {
    for (const auto& [id, ms] : compile_ms)
      layer["compile.ms." + id] = median_of(ms);
  }
};

// --- Socket workloads ---------------------------------------------------

// A cold-started server: a fresh registry over an empty compile-cache
// directory with every model compiled, the registry-mode Server, and its
// socket front end.
class Served {
 public:
  Served(const std::vector<const Model*>& models, std::string cache_dir,
         ColdStarts& cs)
      : cache_dir_(std::move(cache_dir)),
        cache_(cache_dir_),
        registry_(core::ArchConfig::k256_opt(),
                  driver::RegistryOptions{.ddr_budget_bytes = 0,
                                          .program = {},
                                          .compile_cache = &cache_}) {
    for (const Model* m : models) registry_.add_model(m->id, m->net, m->quant);
    for (const Model* m : models) {
      const Clock::time_point t0 = Clock::now();
      registry_.acquire(m->id);
      cs.compile_ms[m->id].push_back(seconds_between(t0, Clock::now()) * 1e3);
    }
    server_ = std::make_unique<serve::Server>(registry_, models.front()->id,
                                              serving_options());
    net_ = std::make_unique<serve::NetServer>(*server_);
  }
  ~Served() {
    net_.reset();
    server_.reset();
    std::error_code ec;
    std::filesystem::remove_all(cache_dir_, ec);
  }
  Served(const Served&) = delete;
  Served& operator=(const Served&) = delete;

  std::uint16_t port() const { return net_->port(); }
  std::int64_t counter(const char* name) {
    return server_->metrics().counter(name).value();
  }

 private:
  std::string cache_dir_;
  driver::CompileCache cache_;
  driver::ProgramRegistry registry_;
  std::unique_ptr<serve::Server> server_;
  std::unique_ptr<serve::NetServer> net_;
};

// Times opt.setups cold starts, each up to its first verified response
// over a fresh connection, and keeps the last server running.
std::unique_ptr<Served> start_served(const std::vector<const Model*>& models,
                                     const RunOptions& opt, ColdStarts& cs) {
  std::unique_ptr<Served> served;
  for (int k = 0; k < opt.setups; ++k) {
    served.reset();  // the previous cold start shuts down first
    const std::string dir = opt.out_dir + "/tmp/cache-" +
                            std::to_string(::getpid()) + "-" +
                            std::to_string(k);
    std::filesystem::remove_all(dir);
    const Clock::time_point t0 = Clock::now();
    served = std::make_unique<Served>(models, dir, cs);
    const Reply r = probe(served->port(), *models.front(), models.front()->id);
    cs.setup_s.push_back(seconds_between(t0, Clock::now()));
    ++cs.attempted;
    if (r.failed || r.status != Status::kOk) ++cs.failed;
  }
  return served;
}

// One measured slice of socket traffic: a phase of wire_vgg or an SLO class
// of mixed_zoo.
struct SliceSpec {
  std::string name;
  int stream = 0;
  double start_s = 0.0;  // measured start, seconds after the run's start
  int seconds = 1;
  double rate_rps = 0.0;
};

struct Segment {
  double rate_rps = 0.0;
  double seconds = 0.0;
  int slice = -1;  // -1 = warm-up
};

// Seeded Poisson arrivals over back-to-back segments; fills each measured
// slice's start time.  Images cycle through each model's pool.
std::vector<Arrival> poisson_arrivals(const std::vector<Segment>& segments,
                                      Rng& rng,
                                      const std::function<int()>& pick_model,
                                      std::vector<SliceSpec>& slices) {
  std::vector<Arrival> out;
  std::map<int, int> next_image;
  double seg_start = 0.0;
  for (const Segment& seg : segments) {
    const double seg_end = seg_start + seg.seconds;
    if (seg.slice >= 0)
      slices[static_cast<std::size_t>(seg.slice)].start_s = seg_start;
    double t = seg_start;
    for (;;) {
      t += -std::log(1.0 - rng.next_double()) / seg.rate_rps;
      if (t >= seg_end) break;
      const int model = pick_model();
      const int image = next_image[model]++ % kPoolImages;
      out.push_back({t, seg.slice, model, image});
    }
    seg_start = seg_end;
  }
  return out;
}

// What one slice measured.
struct SliceResult {
  SliceSpec spec;
  std::vector<Timed> latency;  // per request, +inf for SLO misses
  std::vector<double> late_us, read_delay_us, wire_us, queued_us, dispatch_us,
      batch_size;
  std::int64_t attempted = 0, ok = 0, shed = 0, late = 0, rejected = 0,
               quota = 0, failed = 0, sent_in_slice = 0;
  double p50_us = 0, p99_us = 0, goodput_rps = 0;
};

struct SocketRun {
  std::vector<SliceResult> slices;
  std::vector<double> exec_us, exec_us_per_img, encode_ns, decode_ns;
};

void analyze(const StreamSpec& s, const StreamResult& r, SocketRun& run,
             WorkloadResult& out) {
  for (std::size_t i = 0; i < s.arrivals.size(); ++i) {
    const Arrival& a = s.arrivals[i];
    const Reply& reply = r.replies[i];
    const bool failed = !reply.received || reply.failed;
    ++out.attempted;
    if (failed) ++out.failed;
    if (a.slice < 0) continue;
    SliceResult& sl = run.slices[static_cast<std::size_t>(a.slice)];
    ++sl.attempted;
    const double send = r.send_s[i];
    const double rel = a.due_s - sl.spec.start_s;
    const double lat = slo_latency_us(reply, a.due_s, s.deadline_us);
    sl.latency.push_back({rel, lat});
    if (!std::isnan(send)) {
      sl.late_us.push_back((send - a.due_s) * 1e6);
      const double send_rel = send - sl.spec.start_s;
      if (send_rel >= 0.0 && send_rel < sl.spec.seconds) ++sl.sent_in_slice;
    }
    if (failed) {
      ++sl.failed;
      continue;
    }
    if (!std::isnan(reply.read_delay_us))
      sl.read_delay_us.push_back(reply.read_delay_us);
    switch (reply.status) {
      case Status::kOk:
        ++(std::isinf(lat) ? sl.late : sl.ok);
        break;
      case Status::kDeadlineMissed:
        ++(reply.executed ? sl.late : sl.shed);
        break;
      case Status::kRejectedQueueFull:
        ++sl.rejected;
        break;
      case Status::kRejectedQuota:
        ++sl.quota;
        break;
      default:
        break;  // judged failures were counted above
    }
    if (!std::isnan(send))
      sl.wire_us.push_back((reply.recv_s - send) * 1e6 -
                           static_cast<double>(reply.server.total_us()));
    if (reply.executed) {
      sl.queued_us.push_back(static_cast<double>(reply.server.queued_us));
      sl.dispatch_us.push_back(static_cast<double>(reply.server.batch_us));
      sl.batch_size.push_back(static_cast<double>(reply.batch_size));
      run.exec_us.push_back(static_cast<double>(reply.server.exec_us));
      run.exec_us_per_img.push_back(
          static_cast<double>(reply.server.exec_us) /
          std::max(1, reply.batch_size));
    }
  }
  out.failed += r.transport_errors;
  run.encode_ns.insert(run.encode_ns.end(), r.encode_ns.begin(),
                       r.encode_ns.end());
  run.decode_ns.insert(run.decode_ns.end(), r.decode_ns.begin(),
                       r.decode_ns.end());
}

// In-process execution engine: a compiled program and one runtime over a
// private accelerator context.
struct Engine {
  Engine(const Model& m, driver::ExecMode mode, std::vector<double>* compile_ms)
      : program(compile(m, compile_ms)),
        acc(program.config()),
        dram(64u << 20),
        dma(dram),
        runtime(acc, dram, dma, {.mode = mode}) {}
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  static driver::NetworkProgram compile(const Model& m,
                                        std::vector<double>* compile_ms) {
    const Clock::time_point t0 = Clock::now();
    driver::NetworkProgram p = driver::NetworkProgram::compile(
        m.net, m.quant, core::ArchConfig::k256_opt());
    if (compile_ms != nullptr)
      compile_ms->push_back(seconds_between(t0, Clock::now()) * 1e3);
    return p;
  }

  driver::NetworkProgram program;
  core::Accelerator acc;
  sim::Dram dram;
  sim::DmaEngine dma;
  driver::Runtime runtime;
};

// One timed run_network_batch call over `n` consecutive pool images from
// `first`, with its outputs checked against the reference.
struct Call {
  driver::BatchNetworkRun run;
  Clock::time_point t0, t1;
  double us = 0.0;
  bool ok = true;
};

Call timed_call(Engine& e, const Model& m, int first, int n) {
  const nn::FeatureMapI8* inputs[kMaxBatch];
  for (int k = 0; k < n; ++k)
    inputs[k] = &m.images[static_cast<std::size_t>((first + k) % kPoolImages)];
  Call c;
  c.t0 = Clock::now();
  c.run = e.runtime.run_network_batch(e.program, inputs,
                                      static_cast<std::size_t>(n));
  c.t1 = Clock::now();
  c.us = seconds_between(c.t0, c.t1) * 1e6;
  for (int k = 0; k < n; ++k)
    if (c.run.requests[static_cast<std::size_t>(k)].logits !=
        m.expected[static_cast<std::size_t>((first + k) % kPoolImages)])
      c.ok = false;
  return c;
}

// Records a call and its per-layer children (laid end to end from the
// call's start, host µs; the layer's modelled cycles ride as an argument).
void record_call(obs::Recorder& rec, const std::string& scope,
                 const Call& c, int images) {
  const std::uint64_t t0 = trace_us(c.t0);
  rec.track("bench/" + scope).complete(
      "run_network_batch x" + std::to_string(images), "runtime", t0,
      trace_us(c.t1) - t0, {{"images", images}});
  obs::Track& layers = rec.track("bench/" + scope + "/layers");
  std::uint64_t t = t0;
  for (const driver::LayerRun& lr : c.run.layers) {
    const std::uint64_t d = static_cast<std::uint64_t>(lr.host_wall_us);
    layers.complete(lr.name, nn::layer_kind_name(lr.kind), t, d,
                    {{"sim_cycles", static_cast<std::int64_t>(lr.cycles)}});
    t += d;
  }
}

// Times opt.setups in-process cold starts (compile, context, first verified
// call over `batch` images) and keeps the last engine.
std::unique_ptr<Engine> start_engine(const Model& m, driver::ExecMode mode,
                                     int batch, const RunOptions& opt,
                                     ColdStarts& cs) {
  std::unique_ptr<Engine> e;
  for (int k = 0; k < opt.setups; ++k) {
    e.reset();
    const Clock::time_point t0 = Clock::now();
    e = std::make_unique<Engine>(m, mode, &cs.compile_ms[m.id]);
    const Call c = timed_call(*e, m, 0, batch);
    cs.setup_s.push_back(seconds_between(t0, Clock::now()));
    ++cs.attempted;
    if (!c.ok) ++cs.failed;
  }
  return e;
}

// The ledger pass of a socket workload: every model in process on the
// fast path, batches of kMaxBatch, kLedgerCalls calls each.
void socket_ledger(const std::vector<const Model*>& models,
                   obs::Recorder& trace, WorkloadResult& out) {
  const double peak = calibrate_peak_gmacs();
  Ledger::Totals totals;
  JsonWriter rows;
  rows.begin_object().key("rows").begin_array();
  std::vector<std::unique_ptr<Engine>> engines;
  std::vector<Ledger> ledgers;
  ledgers.reserve(models.size());
  for (const Model* m : models) {
    engines.push_back(
        std::make_unique<Engine>(*m, driver::ExecMode::kFast, nullptr));
    Engine& e = *engines.back();
    ledgers.emplace_back(*m, driver::ExecMode::kFast, e.program);
    for (int c = 0; c < 20; ++c) timed_call(e, *m, c * kMaxBatch, kMaxBatch);
    for (int c = 0; c < kLedgerCalls; ++c) {
      const Call call = timed_call(e, *m, c * kMaxBatch, kMaxBatch);
      ++out.attempted;
      if (!call.ok) ++out.failed;
      ledgers.back().add(call.run, call.us, kMaxBatch);
      if (c % (10 * kTraceEvery) == 0)
        record_call(trace, "ledger/" + m->id, call, kMaxBatch);
    }
    ledgers.back().write_rows(rows, peak);
    ledgers.back().accumulate(totals);
  }
  rows.end_array().key("checks").begin_array();
  bool pass = true;
  for (const Ledger& l : ledgers) pass = l.write_check(rows) && pass;
  rows.end_array().key("sum_check_pass").value(pass).end_object();
  out.ledger_json = rows.str();
  finish_layer_metrics(totals, peak, out.layer);
}

// Cold start, open-loop traffic, analysis and (traced) ledger of a socket
// workload.  Returns the per-slice results for the caller's end-to-end
// metrics.
SocketRun run_socket(const RunOptions& opt, obs::Recorder* trace,
                     const std::vector<const Model*>& models,
                     const std::vector<StreamSpec>& streams,
                     const std::vector<SliceSpec>& slices,
                     WorkloadResult& out) {
  ColdStarts cs;
  std::unique_ptr<Served> served;
  {
    const ServerCpus server_cpus;  // server threads stay off the client's CPU
    served = start_served(models, opt, cs);
  }
  // A short lead so both connections' threads are parked before the first
  // arrival is due.
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(50);
  const std::vector<StreamResult> results =
      run_streams(served->port(), streams, models, start, trace, kTraceEvery);
  const std::int64_t restages = served->counter("serve.model_restage");
  const std::int64_t batches = served->counter("serve.batches");
  served.reset();

  SocketRun run;
  for (const SliceSpec& s : slices) {
    run.slices.push_back({});
    run.slices.back().spec = s;
  }
  for (std::size_t k = 0; k < streams.size(); ++k)
    analyze(streams[k], results[k], run, out);
  out.attempted += cs.attempted;
  out.failed += cs.failed;
  // Measured time: the union of slices, warm-ups excluded.
  double measured_s = 0.0;
  for (const SliceSpec& s : slices)
    if (s.stream == 0) measured_s += s.seconds;

  const unsigned cpus = std::thread::hardware_concurrency();
  if (cpus < 4)
    out.invalid.push_back("host_cpus " + std::to_string(cpus) +
                          " < 4 for a socket workload");

  JsonWriter j, gen;
  j.begin_object().key("slices").begin_array();
  gen.begin_array();
  for (SliceResult& sl : run.slices) {
    const int w = sl.spec.seconds;
    sl.p50_us = phase_percentile(sl.latency, w, 50);
    sl.p99_us = phase_percentile(sl.latency, w, 99);
    const std::vector<double> goodput = window_finite_rate(sl.latency, w);
    sl.goodput_rps = window_median(goodput);
    std::vector<double> all;
    for (const Timed& t : sl.latency) all.push_back(t.value);
    const double late_p99 = nearest_rank(sl.late_us, 99);
    const double read_delay_p99 = nearest_rank(sl.read_delay_us, 99);
    if (!(late_p99 <= kMaxClientDelayUs))
      out.invalid.push_back(sl.spec.name + ": generator lateness p99 " +
                            number_text(late_p99) + " us > 1 ms");
    if (!(read_delay_p99 <= kMaxClientDelayUs))
      out.invalid.push_back(sl.spec.name + ": reader delay p99 " +
                            number_text(read_delay_p99) +
                            " us > 1 ms (or no receive timestamps)");
    const double n = static_cast<double>(sl.attempted);
    const double offered = static_cast<double>(sl.sent_in_slice) / w;
    gen.begin_object()
        .key("slice").value(sl.spec.name)
        .key("offered_rps").value(offered)
        .key("late_us_p99").value(late_p99)
        .key("read_delay_us_p99").value(read_delay_p99)
        .end_object();
    const std::string p = sl.spec.name + ".";
    out.layer[p + "net.wire_us.p50"] = nearest_rank(sl.wire_us, 50);
    out.layer[p + "net.wire_us.p99"] = nearest_rank(sl.wire_us, 99);
    out.layer[p + "sched.queued_us.p50"] = nearest_rank(sl.queued_us, 50);
    out.layer[p + "sched.queued_us.p99"] = nearest_rank(sl.queued_us, 99);
    out.layer[p + "sched.dispatch_us.p50"] = nearest_rank(sl.dispatch_us, 50);
    out.layer[p + "sched.batch_size.mean"] = mean(sl.batch_size);
    out.layer[p + "sched.shed_pct"] = 100.0 * ratio(sl.shed, n);
    out.layer[p + "sched.rejected_pct"] = 100.0 * ratio(sl.rejected, n);
    out.layer[p + "sched.quota_pct"] = 100.0 * ratio(sl.quota, n);
    out.layer[p + "gen.late_us.p99"] = late_p99;
    out.layer[p + "gen.offered_rps"] = offered;
    out.layer[p + "client.read_delay_us.p99"] = read_delay_p99;
    j.begin_object()
        .key("name").value(sl.spec.name)
        .key("seconds").value(w)
        .key("target_rps").value(sl.spec.rate_rps)
        .key("deadline_us")
        .value(streams[static_cast<std::size_t>(sl.spec.stream)].deadline_us)
        .key("attempted").value(sl.attempted)
        .key("ok").value(sl.ok)
        .key("shed").value(sl.shed)
        .key("late").value(sl.late)
        .key("rejected_queue_full").value(sl.rejected)
        .key("rejected_quota").value(sl.quota)
        .key("failed").value(sl.failed)
        .key("miss_pct").value(100.0 * ratio(n - static_cast<double>(sl.ok), n))
        .key("goodput_rps").value(sl.goodput_rps)
        .key("goodput_rps_whole_phase").value(static_cast<double>(sl.ok) / w)
        .key("p50_us").value(sl.p50_us)
        .key("p99_us").value(sl.p99_us)
        .key("p999_us_whole_phase").value(nearest_rank(all, 99.9))
        .key("latency_samples").value(static_cast<std::int64_t>(all.size()))
        .key("offered_rps").value(offered)
        .key("gen_late_us_p99").value(late_p99)
        .key("read_delay_us_p50").value(nearest_rank(sl.read_delay_us, 50))
        .key("read_delay_us_p99").value(read_delay_p99);
    write_array(j, "window_p50_us", window_values(sl.latency, w, 50));
    write_array(j, "window_p99_us", window_values(sl.latency, w, 99));
    write_array(j, "window_goodput_rps", goodput);
    j.end_object();
  }
  j.end_array();
  gen.end_array();
  out.generator_json = gen.str();
  double exec_sum = 0.0;
  for (const double v : run.exec_us_per_img) exec_sum += v;
  out.layer["worker.exec_us.p50"] = nearest_rank(run.exec_us, 50);
  out.layer["worker.exec_us.p99"] = nearest_rank(run.exec_us, 99);
  out.layer["worker.exec_us_per_img"] = mean(run.exec_us_per_img);
  out.layer["worker.busy_pct"] =
      100.0 * ratio(exec_sum * 1e-6, kWorkers * measured_s);
  out.layer["net.encode_ns"] = nearest_rank(run.encode_ns, 50);
  out.layer["net.decode_ns"] = nearest_rank(run.decode_ns, 50);
  out.layer["registry.restages"] = static_cast<double>(restages);
  out.layer["registry.restages_per_1k_batches"] =
      1000.0 * ratio(static_cast<double>(restages),
                     static_cast<double>(batches));
  cs.add_layer_metrics(out.layer);
  j.key("restages").value(restages).key("batches").value(batches);
  cs.write(j);
  j.end_object();
  out.detail_json = j.str();
  out.end_to_end.push_back({"setup_s", median_of(cs.setup_s), "s"});

  if (trace != nullptr) socket_ledger(models, *trace, out);
  return run;
}

// Splits the measured seconds across wire_vgg's lo/hi/over phases in the
// 10:12:6 proportion of the full-length design, at least 1 s each.
void split_phases(int seconds, int& lo, int& hi, int& over) {
  lo = std::max(1, static_cast<int>(std::lround(seconds * 10.0 / 28.0)));
  over = std::max(1, static_cast<int>(std::lround(seconds * 6.0 / 28.0)));
  hi = std::max(1, seconds - lo - over);
}

// Percentiles can be +inf (too many misses); they print as this sentinel
// so a regression reads as a very large latency, never as a missing value.
double finite_us(double us) { return std::isfinite(us) ? us : 1e9; }

WorkloadResult wire_vgg(const RunOptions& opt, obs::Recorder* trace) {
  const Model vgg = make_model("vgg16", opt.seed);
  const std::vector<const Model*> models{&vgg};
  int lo = 0, hi = 0, over = 0;
  split_phases(opt.seconds, lo, hi, over);
  std::vector<SliceSpec> slices{{"lo", 0, 0.0, lo, 2000.0},
                                {"hi", 0, 0.0, hi, 7000.0},
                                {"over", 0, 0.0, over, 16000.0}};
  std::vector<Segment> segments;
  for (int k = 0; k < 3; ++k) {
    const SliceSpec& s = slices[static_cast<std::size_t>(k)];
    segments.push_back({s.rate_rps, opt.warmup_s, -1});
    segments.push_back({s.rate_rps, static_cast<double>(s.seconds), k});
  }
  Rng rng(opt.seed * 0x9e3779b97f4a7c15ull + 101);
  StreamSpec stream{"wire", 0, 10000,
                    poisson_arrivals(segments, rng, [] { return 0; }, slices)};

  WorkloadResult out;
  const SocketRun run = run_socket(opt, trace, models, {stream}, slices, out);
  // Both latencies come from lo.  hi's p99 is in the result file only: at
  // half the knee, queueing multiplies run-to-run changes in host speed, and
  // with no code change it ranged over 2.0–4.3 ms (and +inf) between runs.
  out.p50_us = finite_us(run.slices[0].p50_us);
  out.end_to_end.push_back({"p50_us", out.p50_us, "us"});
  out.end_to_end.push_back({"p99_us", finite_us(run.slices[0].p99_us), "us"});
  out.end_to_end.push_back(
      {"throughput_per_s", run.slices[2].goodput_rps, "1/s"});
  return out;
}

WorkloadResult mixed_zoo(const RunOptions& opt, obs::Recorder* trace) {
  const Model vgg = make_model("vgg16", opt.seed);
  const Model mobile = make_model("mobile", opt.seed);
  const Model residual = make_model("residual", opt.seed);
  const std::vector<const Model*> models{&vgg, &mobile, &residual};
  // The low class must stay oversubscribed (missing at least 10 %) on a
  // fast host too.  At the design's 16,000 req/s it missed only 2–12 % on
  // the reference host, and the most the server took of it there was
  // 19,400 req/s, so the rate is 24,000 (about 19 % missed at that speed).
  constexpr double kLowRps = 24000.0;
  std::vector<SliceSpec> slices{{"high", 0, 0.0, opt.seconds, 3000.0},
                                {"low", 1, 0.0, opt.seconds, kLowRps}};
  const double warm = 2.0 * opt.warmup_s;
  Rng high_rng(opt.seed * 0x9e3779b97f4a7c15ull + 201);
  Rng low_rng(opt.seed * 0x9e3779b97f4a7c15ull + 202);
  Rng mix_rng(opt.seed * 0x9e3779b97f4a7c15ull + 203);
  StreamSpec high{"high", 0, 10000,
                  poisson_arrivals({{3000.0, warm, -1},
                                    {3000.0, double(opt.seconds), 0}},
                                   high_rng, [] { return 0; }, slices)};
  StreamSpec low{"low", 1, 20000,
                 poisson_arrivals({{kLowRps, warm, -1},
                                   {kLowRps, double(opt.seconds), 1}},
                                  low_rng,
                                  [&mix_rng] {
                                    return mix_rng.next_bool() ? 1 : 2;
                                  },
                                  slices)};

  WorkloadResult out;
  const SocketRun run =
      run_socket(opt, trace, models, {high, low}, slices, out);
  out.p50_us = finite_us(run.slices[0].p50_us);
  out.end_to_end.push_back({"p50_us", out.p50_us, "us"});
  out.end_to_end.push_back({"p99_us", finite_us(run.slices[0].p99_us), "us"});
  // Both classes share the measured window, so their per-window goodputs
  // add up.
  std::vector<Timed> both = run.slices[0].latency;
  both.insert(both.end(), run.slices[1].latency.begin(),
              run.slices[1].latency.end());
  out.end_to_end.push_back(
      {"throughput_per_s", window_median(window_finite_rate(both, opt.seconds)),
       "1/s"});
  return out;
}

// --- In-process workloads ----------------------------------------------

// One measured call of an in-process loop.
struct CallSample {
  double t_end = 0.0;  // seconds after the measured start
  double us = 0.0;
  double work = 0.0;
};

// Work per busy second of the calls that ended in each consecutive
// kWindowS window of [0, duration_s) (NaN for an empty window).
std::vector<double> window_rates(const std::vector<CallSample>& calls,
                                 double duration_s) {
  const auto n = static_cast<std::size_t>(std::lround(duration_s / kWindowS));
  std::vector<double> work(n), busy(n);
  for (const CallSample& c : calls) {
    const auto w = static_cast<std::size_t>(c.t_end / kWindowS);
    if (c.t_end < 0.0 || w >= n) continue;
    work[w] += c.work;
    busy[w] += c.us * 1e-6;
  }
  std::vector<double> rates;
  for (std::size_t w = 0; w < n; ++w)
    rates.push_back(busy[w] > 0.0 ? work[w] / busy[w]
                                  : std::numeric_limits<double>::quiet_NaN());
  return rates;
}

// The shared loop of batch_vgg8 and cycle_sim: `batch` images per call,
// back to back on one thread, `warmup_s` unmeasured then opt.seconds
// measured.  `work` is what the throughput counts per call.
WorkloadResult in_process(const RunOptions& opt, obs::Recorder* trace,
                          const Model& m, driver::ExecMode mode, int batch,
                          double warmup_s,
                          const std::function<double(const Call&)>& work,
                          const char* work_unit_name) {
  WorkloadResult out;
  ColdStarts cs;
  std::unique_ptr<Engine> e = start_engine(m, mode, batch, opt, cs);
  out.attempted += cs.attempted;
  out.failed += cs.failed;
  const double peak = trace != nullptr ? calibrate_peak_gmacs() : 0.0;
  Ledger ledger(m, mode, e->program);

  // Modelled cycles per pool image: a deterministic engine must repeat
  // them exactly, so any drift is a failed op.
  std::vector<std::uint64_t> cycles_seen(kPoolImages, 0);
  int next = 0;
  std::int64_t calls = 0;
  const auto call = [&]() {
    Call c = timed_call(*e, m, next, batch);
    ++out.attempted;
    if (!c.ok) ++out.failed;
    if (batch == 1) {
      std::uint64_t cycles = 0;
      for (const driver::LayerRun& lr : c.run.layers) cycles += lr.cycles;
      std::uint64_t& seen = cycles_seen[static_cast<std::size_t>(next)];
      if (seen != 0 && seen != cycles) ++out.failed;
      seen = cycles;
    }
    next = (next + batch) % kPoolImages;
    return c;
  };

  const Clock::time_point warm_end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(warmup_s));
  while (Clock::now() < warm_end) call();

  std::vector<CallSample> samples;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end = start + std::chrono::seconds(opt.seconds);
  while (Clock::now() < end) {
    const Call c = call();
    samples.push_back({seconds_between(start, c.t1), c.us, work(c)});
    if (trace != nullptr) {
      ledger.add(c.run, c.us, batch);
      if (calls % kTraceEvery == 0) record_call(*trace, "runtime", c, batch);
    }
    ++calls;
  }

  // Call times are percentiles over every measured call: at 35 calls a
  // second (cycle_sim) a 1 s window's p99 would be just its slowest call.
  // The rate is the median of the 1 s windows' rates.
  std::vector<Timed> latency;
  std::vector<double> call_us;
  double work_sum = 0.0, busy_sum = 0.0;
  for (const CallSample& c : samples) {
    latency.push_back({c.t_end, c.us});
    call_us.push_back(c.us);
    work_sum += c.work;
    busy_sum += c.us * 1e-6;
  }
  const std::vector<double> rates = window_rates(samples, opt.seconds);
  out.p50_us = nearest_rank(call_us, 50);
  out.end_to_end.push_back({"setup_s", median_of(cs.setup_s), "s"});
  out.end_to_end.push_back({"p50_us", out.p50_us, "us"});
  out.end_to_end.push_back({"p99_us", nearest_rank(call_us, 99), "us"});
  out.end_to_end.push_back({"throughput_per_s", window_median(rates), "1/s"});

  JsonWriter j;
  j.begin_object()
      .key("calls").value(calls)
      .key("images_per_call").value(batch)
      .key("exec_mode").value(driver::exec_mode_name(mode))
      .key("throughput_unit").value(work_unit_name)
      .key("throughput_whole_run").value(ratio(work_sum, busy_sum));
  write_array(j, "window_p50_us", window_values(latency, opt.seconds, 50));
  write_array(j, "window_p99_us", window_values(latency, opt.seconds, 99));
  write_array(j, "window_rate", rates);
  if (batch == 1) {
    double cycles = 0.0, images = 0.0;
    for (const std::uint64_t c : cycles_seen)
      if (c != 0) {
        cycles += static_cast<double>(c);
        images += 1.0;
      }
    j.key("model_cycles_per_img").value(ratio(cycles, images));
  }
  cs.write(j);
  j.end_object();
  out.detail_json = j.str();
  cs.add_layer_metrics(out.layer);

  if (trace != nullptr) {
    if (mode == driver::ExecMode::kCycle) {
      Engine fast(m, driver::ExecMode::kFast, nullptr);
      ledger.set_predictions(timed_call(fast, m, 0, 1).run);
    }
    JsonWriter rows;
    rows.begin_object().key("rows").begin_array();
    ledger.write_rows(rows, peak);
    rows.end_array().key("checks").begin_array();
    const bool pass = ledger.write_check(rows);
    rows.end_array().key("sum_check_pass").value(pass).end_object();
    out.ledger_json = rows.str();
    Ledger::Totals totals;
    ledger.accumulate(totals);
    finish_layer_metrics(totals, peak, out.layer);
  }
  return out;
}

WorkloadResult batch_vgg8(const RunOptions& opt, obs::Recorder* trace) {
  const Model m = make_model("vgg16_div8", opt.seed);
  return in_process(
      opt, trace, m, driver::ExecMode::kFast, kMaxBatch, 2.0 * opt.warmup_s,
      [](const Call&) { return static_cast<double>(kMaxBatch); },
      "images per host second");
}

WorkloadResult cycle_sim(const RunOptions& opt, obs::Recorder* trace) {
  const Model m = make_model("vgg16_div8", opt.seed);
  return in_process(
      opt, trace, m, driver::ExecMode::kCycle, 1, 0.0,
      [](const Call& c) {
        double cycles = 0.0;
        for (const driver::LayerRun& lr : c.run.layers)
          cycles += static_cast<double>(lr.cycles);
        return cycles;
      },
      "simulated cycles per host second");
}

}  // namespace

bool known_workload(const std::string& name) {
  return name == "wire_vgg" || name == "batch_vgg8" || name == "mixed_zoo" ||
         name == "cycle_sim";
}

WorkloadResult run_workload(const RunOptions& opt, obs::Recorder* trace) {
  if (opt.workload == "wire_vgg") return wire_vgg(opt, trace);
  if (opt.workload == "batch_vgg8") return batch_vgg8(opt, trace);
  if (opt.workload == "mixed_zoo") return mixed_zoo(opt, trace);
  return cycle_sim(opt, trace);
}

}  // namespace bench
