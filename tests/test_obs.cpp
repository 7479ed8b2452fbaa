// Observability layer: span recorder, metrics registry, Chrome-trace
// exporter, and the end-to-end contract — a scaled VGG-16 through the
// PoolRuntime emits well-formed Chrome trace JSON whose per-layer span
// durations equal the LayerRun cycle counts.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <future>
#include <string>
#include <vector>

#include "core/accelerator.hpp"
#include "driver/accelerator_pool.hpp"
#include "driver/pool_runtime.hpp"
#include "driver/program_registry.hpp"
#include "driver/runtime.hpp"
#include "nn/vgg16.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pack/weight_pack.hpp"
#include "quant/prune.hpp"
#include "quant/quantize.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"
#include "image_run.hpp"

namespace tsca {
namespace {

// --- Minimal JSON well-formedness checker (no external deps) ---------------

class JsonChecker {
 public:
  static bool valid(const std::string& s) {
    JsonChecker c(s);
    c.ws();
    if (!c.value()) return false;
    c.ws();
    return c.pos_ == s.size();
  }

 private:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  bool eat(char c) {
    if (peek() != c) return false;
    ++pos_;
    return true;
  }
  void ws() {
    while (peek() == ' ' || peek() == '\n' || peek() == '\t' || peek() == '\r')
      ++pos_;
  }

  bool string() {
    if (!eat('"')) return false;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        if (pos_ + 1 >= s_.size()) return false;
        ++pos_;
      }
      ++pos_;
    }
    return eat('"');
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* lit) {
    const std::size_t n = std::string(lit).size();
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  bool value() {  // NOLINT(misc-no-recursion)
    ws();
    switch (peek()) {
      case '{': {
        ++pos_;
        ws();
        if (eat('}')) return true;
        do {
          ws();
          if (!string()) return false;
          ws();
          if (!eat(':')) return false;
          if (!value()) return false;
          ws();
        } while (eat(','));
        return eat('}');
      }
      case '[': {
        ++pos_;
        ws();
        if (eat(']')) return true;
        do {
          if (!value()) return false;
          ws();
        } while (eat(','));
        return eat(']');
      }
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

TEST(JsonChecker, AcceptsAndRejects) {
  EXPECT_TRUE(JsonChecker::valid(R"({"a":[1,-2.5,"x\"y"],"b":{}})"));
  EXPECT_TRUE(JsonChecker::valid("[]"));
  EXPECT_FALSE(JsonChecker::valid(R"({"a":1)"));
  EXPECT_FALSE(JsonChecker::valid(R"({"a":1}},)"));
  EXPECT_FALSE(JsonChecker::valid(R"({"a":})"));
}

// --- Recorder / Track ------------------------------------------------------

TEST(TraceRecorder, SpanAdvancesCursorCompleteDoesNot) {
  obs::Recorder rec;
  obs::Track& t = rec.track("unit0");
  t.set_now(100);
  t.span("a", "batch", 40, {{"k", 7}});
  EXPECT_EQ(t.now(), 140u);
  t.complete("wrap", "stripe", 100, 40);
  EXPECT_EQ(t.now(), 140u);

  // Find-or-create returns the same track (same cursor).
  EXPECT_EQ(&rec.track("unit0"), &t);
  EXPECT_NE(&rec.track("unit1"), &t);

  const std::vector<obs::TraceEvent> events = rec.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "a");
  EXPECT_EQ(events[0].begin, 100u);
  EXPECT_EQ(events[0].duration, 40u);
  ASSERT_EQ(events[0].args.size(), 1u);
  EXPECT_EQ(events[0].args[0].second, 7);
  EXPECT_EQ(events[1].name, "wrap");
  EXPECT_EQ(rec.track_names(),
            (std::vector<std::string>{"unit0", "unit1"}));
}

TEST(Metrics, HistogramQuantilesAndJson) {
  obs::MetricsRegistry reg;
  reg.counter("c.requests").add(3);
  reg.counter("c.requests").add(2);
  EXPECT_EQ(reg.counter("c.requests").value(), 5);

  obs::Histogram& h = reg.histogram("lat");
  for (const std::int64_t v : {1, 2, 4, 8, 1000}) h.observe(v);
  EXPECT_EQ(h.count(), 5);
  EXPECT_EQ(h.sum(), 1015);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 1000);
  EXPECT_LE(h.quantile(0.5), 4);
  EXPECT_EQ(h.quantile(1.0), 1000);

  const std::string json = reg.json();
  EXPECT_TRUE(JsonChecker::valid(json)) << json;
  EXPECT_NE(json.find("\"c.requests\":5"), std::string::npos);
  EXPECT_NE(reg.text().find("lat count=5"), std::string::npos);
}

// The Prometheus exposition (served by the socket front-end's metrics
// endpoint) must parse line by line and agree with the registry: sanitized
// tsca_-prefixed names, typed counters, and histograms as a cumulative
// non-decreasing le-ladder with consistent _sum/_count.
TEST(Metrics, PrometheusExpositionParsesAndMatchesRegistry) {
  obs::MetricsRegistry reg;
  reg.counter("serve.completed").add(7);
  obs::Histogram& h = reg.histogram("serve.latency_us");
  std::int64_t expect_sum = 0;
  for (const std::int64_t v : {0, 1, 3, 500, 1000}) {
    h.observe(v);
    expect_sum += v;
  }

  const std::string text = reg.prometheus();
  EXPECT_NE(text.find("# TYPE tsca_serve_completed counter\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("tsca_serve_completed 7\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE tsca_serve_latency_us histogram\n"),
            std::string::npos);

  // Parse every line: TYPE comments name a known type; every sample line is
  // `name[{le="bound"}] value`; the histogram's ladder is cumulative.
  std::istringstream is(text);
  std::string line;
  std::vector<std::pair<std::string, std::int64_t>> buckets;  // le → count
  std::int64_t sum = -1, count = -1;
  while (std::getline(is, line)) {
    ASSERT_FALSE(line.empty());
    if (line.rfind("# TYPE tsca_", 0) == 0) {
      const bool typed = line.ends_with(" counter") ||
                         line.ends_with(" histogram");
      EXPECT_TRUE(typed) << line;
      continue;
    }
    EXPECT_EQ(line.rfind("tsca_", 0), 0u) << line;
    const std::size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    const std::string name = line.substr(0, sp);
    const std::int64_t value = std::stoll(line.substr(sp + 1));
    if (name.rfind("tsca_serve_latency_us_bucket{le=\"", 0) == 0) {
      std::string le = name.substr(name.find('"') + 1);
      le = le.substr(0, le.find('"'));
      buckets.emplace_back(le, value);
    } else if (name == "tsca_serve_latency_us_sum") {
      sum = value;
    } else if (name == "tsca_serve_latency_us_count") {
      count = value;
    }
  }
  ASSERT_GE(buckets.size(), 2u);
  EXPECT_EQ(buckets.front().first, "1");
  EXPECT_EQ(buckets.front().second, 2) << "zeros and ones share bucket 0";
  for (std::size_t i = 1; i < buckets.size(); ++i)
    EXPECT_GE(buckets[i].second, buckets[i - 1].second)
        << "bucket ladder must be cumulative";
  EXPECT_EQ(buckets.back().first, "+Inf");
  EXPECT_EQ(buckets.back().second, 5);
  EXPECT_EQ(sum, expect_sum);
  EXPECT_EQ(count, 5);
}

// --- End-to-end: scaled VGG-16 through the PoolRuntime ---------------------

struct Vgg16Fixture {
  Vgg16Fixture()
      : net(nn::build_vgg16(
            {.input_extent = 32, .channel_divisor = 16, .num_classes = 10})),
        input(net.input_shape()) {
    Rng rng(301);
    nn::WeightsF weights = nn::init_random_weights(net, rng);
    quant::prune_weights(net, weights, quant::vgg16_han_profile());
    nn::FeatureMapF calib(net.input_shape());
    for (std::size_t i = 0; i < calib.size(); ++i)
      calib.data()[i] = static_cast<float>(rng.next_gaussian() * 0.4);
    model = quant::quantize_network(net, weights, {calib});
    for (std::size_t i = 0; i < input.size(); ++i)
      input.data()[i] = static_cast<std::int8_t>(rng.next_int(-40, 40));
  }

  nn::Network net;
  quant::QuantizedModel model;
  nn::FeatureMapI8 input;
};

TEST(ObsEndToEnd, Vgg16PoolRuntimeLayerSpansMatchLayerRuns) {
  const Vgg16Fixture f;
  obs::Recorder rec;
  obs::MetricsRegistry metrics;

  driver::AcceleratorPool pool(core::ArchConfig::k256_opt(), {.workers = 4});
  driver::PoolRuntime runtime(
      pool, {.mode = driver::ExecMode::kCycle, .trace = &rec, .metrics = &metrics});
  const ImageRun run = run_image(
      runtime, driver::NetworkProgram::compile(f.net, f.model, pool.config()),
      f.input);

  // Per-layer spans, in record order, must mirror the accelerator layers:
  // same count, same durations (== LayerRun.cycles), laid end to end.
  std::vector<const driver::LayerRun*> accel;
  for (const driver::LayerRun& lr : run.layers)
    if (lr.on_accelerator) accel.push_back(&lr);
  ASSERT_FALSE(accel.empty());

  std::vector<obs::TraceEvent> layer_events;
  for (const obs::TraceEvent& ev : rec.events())
    if (ev.category == "layer") layer_events.push_back(ev);
  ASSERT_EQ(layer_events.size(), accel.size());

  std::uint64_t clock = 0;
  for (std::size_t i = 0; i < accel.size(); ++i) {
    SCOPED_TRACE("layer " + accel[i]->name);
    EXPECT_EQ(layer_events[i].duration, accel[i]->cycles);
    EXPECT_EQ(layer_events[i].begin, clock);
    EXPECT_EQ(layer_events[i].name, accel[i]->name);
    clock += accel[i]->cycles;
  }

  // Worker/DMA tracks exist alongside the layer timeline.
  const std::vector<std::string> tracks = rec.track_names();
  const auto has = [&](const std::string& name) {
    for (const std::string& t : tracks)
      if (t == name) return true;
    return false;
  };
  EXPECT_TRUE(has("layers"));
  EXPECT_TRUE(has("worker0"));
  EXPECT_TRUE(has("worker0.dma"));

  // The exported Chrome trace is well-formed JSON with the trace fields.
  const std::string json = obs::chrome_trace_json(rec);
  EXPECT_TRUE(JsonChecker::valid(json));
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);

  // Metrics agree with the layer statistics.
  std::int64_t total_cycles = 0;
  for (const driver::LayerRun* lr : accel)
    total_cycles += static_cast<std::int64_t>(lr->cycles);
  EXPECT_EQ(metrics.counter("runtime.layers").value(),
            static_cast<std::int64_t>(accel.size()));
  EXPECT_EQ(metrics.counter("runtime.accel_cycles").value(), total_cycles);
  EXPECT_EQ(metrics.histogram("runtime.layer_cycles").count(),
            static_cast<std::int64_t>(accel.size()));
  EXPECT_TRUE(JsonChecker::valid(metrics.json()));
}

TEST(ObsEndToEnd, TracingDoesNotChangeResults) {
  const Vgg16Fixture f;
  const driver::NetworkProgram program = driver::NetworkProgram::compile(
      f.net, f.model, core::ArchConfig::k256_opt());
  driver::AcceleratorPool plain_pool(core::ArchConfig::k256_opt(),
                                     {.workers = 2});
  driver::PoolRuntime plain(plain_pool, {.mode = driver::ExecMode::kCycle});
  const ImageRun base = run_image(plain, program, f.input);

  obs::Recorder rec;
  driver::AcceleratorPool traced_pool(core::ArchConfig::k256_opt(),
                                      {.workers = 2});
  driver::PoolRuntime traced(
      traced_pool,
      {.mode = driver::ExecMode::kCycle, .trace = &rec, .trace_kernels = true});
  const ImageRun with = run_image(traced, program, f.input);

  EXPECT_EQ(base.logits, with.logits);
  ASSERT_EQ(base.layers.size(), with.layers.size());
  for (std::size_t i = 0; i < base.layers.size(); ++i) {
    EXPECT_EQ(base.layers[i].cycles, with.layers[i].cycles);
    EXPECT_EQ(base.layers[i].counters, with.layers[i].counters);
    EXPECT_EQ(base.layers[i].dma, with.layers[i].dma);
  }
  EXPECT_GT(rec.event_count(), 0u);
}

// The serving path accounts every request: one latency observation and one
// request span each, and the workers' layer spans cover exactly the
// simulated cycles the runtime counted.
TEST(ObsEndToEnd, ServeRecordsPerRequestLatency) {
  const Vgg16Fixture f;
  constexpr int kRequests = 3;

  obs::Recorder rec;
  obs::MetricsRegistry metrics;
  driver::ProgramRegistry registry(core::ArchConfig::k256_opt());
  registry.add_model("vgg", f.net, f.model);
  {
    serve::Server server(registry, "vgg",
                         {.workers = 2,
                          .mode = driver::ExecMode::kCycle,
                          .trace = &rec,
                          .metrics = &metrics});
    std::vector<std::future<serve::Response>> futures;
    for (int i = 0; i < kRequests; ++i)
      futures.push_back(server.submit(f.input));
    for (std::future<serve::Response>& fut : futures)
      ASSERT_EQ(fut.get().status, serve::Status::kOk);
  }

  EXPECT_EQ(metrics.counter("serve.executed").value(), kRequests);
  EXPECT_EQ(metrics.histogram("serve.latency_us").count(), kRequests);
  EXPECT_EQ(metrics.histogram("serve.model.vgg.latency_us").count(),
            kRequests);

  std::int64_t layer_cycles = 0;
  int request_spans = 0;
  for (const obs::TraceEvent& ev : rec.events()) {
    if (ev.category == "layer")
      layer_cycles += static_cast<std::int64_t>(ev.duration);
    if (ev.category == "request") ++request_spans;
  }
  EXPECT_EQ(request_spans, kRequests);
  EXPECT_GT(layer_cycles, 0);
  EXPECT_EQ(layer_cycles, metrics.counter("runtime.accel_cycles").value());

  const std::string json = obs::chrome_trace_json(rec);
  EXPECT_TRUE(JsonChecker::valid(json));
}

// Kernel-level tracing: per-kernel spans inside a batch account every cycle
// as busy or stalled.
TEST(ObsEndToEnd, KernelSpansAccountBusyAndStall) {
  Rng rng(303);
  nn::FeatureMapI8 fm({8, 12, 12});
  for (std::size_t i = 0; i < fm.size(); ++i)
    fm.data()[i] = static_cast<std::int8_t>(rng.next_int(-30, 30));
  nn::FilterBankI8 filters({8, 8, 3, 3});
  for (std::size_t i = 0; i < filters.size(); ++i)
    if (rng.next_double() < 0.5)
      filters.data()[i] = static_cast<std::int8_t>(rng.next_int(-15, 15));

  obs::Recorder rec;
  core::Accelerator acc(core::ArchConfig::k256_opt());
  sim::Dram dram(32u << 20);
  sim::DmaEngine dma(dram);
  driver::Runtime rt(acc, dram, dma,
                     {.mode = driver::ExecMode::kCycle, .trace = &rec,
                      .trace_kernels = true});
  driver::LayerRun run;
  conv_image(rt, pack::to_tiled(fm),
             driver::compile_conv(acc.config(), fm.shape(),
                                  pack::pack_filters(filters),
                                  std::vector<std::int32_t>(8, 1),
                                  nn::Requant{.shift = 6}),
             run);

  int kernel_spans = 0;
  for (const obs::TraceEvent& ev : rec.events()) {
    if (ev.category != "kernel") continue;
    ++kernel_spans;
    std::int64_t busy = -1;
    std::int64_t stall = -1;
    for (const auto& [key, value] : ev.args) {
      if (key == "busy_cycles") busy = value;
      if (key == "stall_cycles") stall = value;
    }
    ASSERT_GE(busy, 0);
    ASSERT_GE(stall, 0);
    EXPECT_EQ(static_cast<std::uint64_t>(busy + stall), ev.duration);
  }
  EXPECT_GT(kernel_spans, 0);
}

}  // namespace
}  // namespace tsca
