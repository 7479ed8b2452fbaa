// Socket front-end: wire-protocol codecs, the TCP server/client pair, wire
// cancellation, and the Prometheus metrics endpoint.
//
// Every suite here is named Net* so tier1.sh's TSan configuration picks the
// file up (-R '...|Net...') — two threads per connection plus the serving
// pipeline is exactly the machinery TSan exists for.  All sockets are
// loopback with OS-assigned ephemeral ports (port 0), so tests are hermetic
// and parallel-safe.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "core/accelerator.hpp"
#include "driver/program.hpp"
#include "driver/program_registry.hpp"
#include "driver/runtime.hpp"
#include "nn/vgg16.hpp"
#include "nn/zoo.hpp"
#include "quant/prune.hpp"
#include "quant/quantize.hpp"
#include "serve/client.hpp"
#include "serve/load_generator.hpp"
#include "serve/net_server.hpp"
#include "serve/protocol.hpp"
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
// test in this binary.
struct SharedModel {
  SharedModel() : registry(core::ArchConfig::k256_opt()) {
    Rng rng(601);
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

// A raw loopback socket for speaking deliberately hostile bytes at the
// server, bypassing NetClient's well-formedness.
int connect_raw(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// --- Wire protocol codecs ---------------------------------------------

TEST(NetProtocol, RequestRoundTripsAllFields) {
  Rng rng(602);
  nn::FeatureMapI8 fm = random_fm({3, 5, 7}, rng);
  serve::SubmitOptions opts;
  opts.deadline_us = 123456;
  opts.priority = 2;
  opts.cycle_budget = 987654321;
  opts.model_id = "mobilenet_v1";

  const std::vector<std::uint8_t> payload =
      serve::encode_request(42, opts, fm);
  const serve::WireRequest back = serve::decode_request(payload);
  EXPECT_EQ(back.wire_id, 42u);
  EXPECT_EQ(back.opts.deadline_us, 123456);
  EXPECT_EQ(back.opts.priority, 2);
  EXPECT_EQ(back.opts.cycle_budget, 987654321u);
  EXPECT_EQ(back.opts.model_id, "mobilenet_v1");
  ASSERT_EQ(back.input.shape(), fm.shape());
  EXPECT_EQ(std::memcmp(back.input.data(), fm.data(), fm.size()), 0);

  // An empty model id (server default) survives the trip too.
  const serve::WireRequest dflt =
      serve::decode_request(serve::encode_request(43, {}, fm));
  EXPECT_TRUE(dflt.opts.model_id.empty());

  // No deadline survives the trip as a negative sentinel.
  serve::SubmitOptions nodl;
  nodl.deadline_us = -1;
  const serve::WireRequest back2 =
      serve::decode_request(serve::encode_request(7, nodl, fm));
  EXPECT_LT(back2.opts.deadline_us, 0);
}

TEST(NetProtocol, ResponseRoundTripsAllFields) {
  serve::Response r;
  r.status = serve::Status::kDeadlineMissed;
  r.executed = true;
  r.flat_output = true;
  r.batch_size = 5;
  r.latency.queued_us = 11;
  r.latency.batch_us = 22;
  r.latency.exec_us = 33;
  r.logits = {1, -2, 3, -4};
  r.error = "";

  const serve::WireResponse back =
      serve::decode_response(serve::encode_response(99, r));
  EXPECT_EQ(back.wire_id, 99u);
  EXPECT_EQ(back.response.id, 99u);
  EXPECT_EQ(back.response.status, serve::Status::kDeadlineMissed);
  EXPECT_TRUE(back.response.executed);
  EXPECT_TRUE(back.response.flat_output);
  EXPECT_EQ(back.response.batch_size, 5);
  EXPECT_EQ(back.response.latency.queued_us, 11);
  EXPECT_EQ(back.response.latency.batch_us, 22);
  EXPECT_EQ(back.response.latency.exec_us, 33);
  EXPECT_EQ(back.response.logits, (std::vector<std::int8_t>{1, -2, 3, -4}));

  serve::Response err;
  err.status = serve::Status::kError;
  err.error = "input shape mismatch";
  const serve::WireResponse back2 =
      serve::decode_response(serve::encode_response(100, err));
  EXPECT_EQ(back2.response.status, serve::Status::kError);
  EXPECT_EQ(back2.response.error, "input shape mismatch");
}

TEST(NetProtocol, MalformedPayloadsThrowInsteadOfMisparse) {
  Rng rng(603);
  const nn::FeatureMapI8 fm = random_fm({2, 3, 3}, rng);
  std::vector<std::uint8_t> payload = serve::encode_request(1, {}, fm);

  // Truncation anywhere in the payload is detected, never read past.
  std::vector<std::uint8_t> cut(payload.begin(), payload.end() - 5);
  EXPECT_THROW(serve::decode_request(cut), serve::ProtocolError);
  cut.assign(payload.begin(), payload.begin() + 3);
  EXPECT_THROW(serve::decode_request(cut), serve::ProtocolError);

  // Trailing bytes mean a layout disagreement — also an error.
  std::vector<std::uint8_t> padded = payload;
  padded.push_back(0);
  EXPECT_THROW(serve::decode_request(padded), serve::ProtocolError);

  // A response with an out-of-range status byte is rejected.
  serve::Response r;
  std::vector<std::uint8_t> resp = serve::encode_response(5, r);
  resp[8] = 250;  // status octet follows the u64 wire id
  EXPECT_THROW(serve::decode_response(resp), serve::ProtocolError);

  EXPECT_THROW(serve::decode_cancel({1, 2, 3}), serve::ProtocolError);
}

// Regression test for allocate-before-validate: get_fm sized the feature
// map from the wire-claimed dims before bounds-checking them against the
// payload, so a tiny frame claiming 65535³ elements (~280TB) escaped as
// std::bad_alloc/length_error — not a ProtocolError, so it blew past the
// reader's catch and std::terminate'd the process — while 1×65535×65535
// (~4.3GB) quietly zero-filled real memory.  The claim must be checked
// against the payload first and fail as ProtocolError.
TEST(NetProtocol, HugeClaimedFmDimsThrowBeforeAllocating) {
  Rng rng(610);
  const nn::FeatureMapI8 fm = random_fm({1, 1, 1}, rng);
  std::vector<std::uint8_t> payload = serve::encode_request(1, {}, fm);
  // Dims sit after u64 id | i64 deadline | u8 priority | u64 budget |
  // u8 nmodel (0 here).
  ASSERT_EQ(payload.size(), 33u);
  for (std::size_t i = 26; i < 32; ++i) payload[i] = 0xff;  // 65535³ claimed
  EXPECT_THROW(serve::decode_request(payload), serve::ProtocolError);
  payload[26] = 1;  // 1×65535×65535: an allocation that would succeed —
  payload[27] = 0;  // and must not happen either
  EXPECT_THROW(serve::decode_request(payload), serve::ProtocolError);
}

// The model-id length octet is bounds-checked before the bytes are touched:
// a wire-claimed length above kMaxModelIdBytes is a protocol error even when
// the payload happens to be long enough, and the encoder refuses to build an
// over-long id in the first place.
TEST(NetProtocol, OversizeModelIdRejectedBothDirections) {
  Rng rng(611);
  const nn::FeatureMapI8 fm = random_fm({1, 1, 1}, rng);
  std::vector<std::uint8_t> payload = serve::encode_request(1, {}, fm);
  payload[25] = static_cast<std::uint8_t>(serve::kMaxModelIdBytes + 1);
  EXPECT_THROW(serve::decode_request(payload), serve::ProtocolError);
  payload[25] = 0xff;
  EXPECT_THROW(serve::decode_request(payload), serve::ProtocolError);

  serve::SubmitOptions opts;
  opts.model_id.assign(serve::kMaxModelIdBytes + 1, 'a');
  EXPECT_THROW(serve::encode_request(2, opts, fm), Error);

  // Exactly at the cap round-trips.
  opts.model_id.assign(serve::kMaxModelIdBytes, 'a');
  const serve::WireRequest back =
      serve::decode_request(serve::encode_request(3, opts, fm));
  EXPECT_EQ(back.opts.model_id, opts.model_id);

  // A claimed in-bounds length the payload cannot satisfy truncates.
  std::vector<std::uint8_t> cut = serve::encode_request(4, {}, fm);
  cut[25] = 32;  // claims 32 id bytes the 1x1x1 payload does not hold
  EXPECT_THROW(serve::decode_request(cut), serve::ProtocolError);
}

// --- Socket end-to-end -------------------------------------------------

TEST(NetServe, EndToEndBitExactOverSocket) {
  SharedModel& m = shared_model();
  Rng rng(604);
  serve::ServerOptions opts;
  opts.workers = 2;
  serve::Server server(m.registry, "vgg", opts);
  serve::NetServer net(server);
  ASSERT_GT(net.port(), 0);
  serve::NetClient client("127.0.0.1", net.port());

  constexpr int kRequests = 4;
  std::vector<nn::FeatureMapI8> inputs;
  std::vector<std::future<serve::Response>> futures;
  for (int i = 0; i < kRequests; ++i) {
    inputs.push_back(random_fm(m.net.input_shape(), rng));
    futures.push_back(client.submit(inputs.back()));
  }
  for (int i = 0; i < kRequests; ++i) {
    const serve::Response r = futures[static_cast<std::size_t>(i)].get();
    EXPECT_EQ(r.status, serve::Status::kOk);
    EXPECT_TRUE(r.executed);
    EXPECT_EQ(r.logits, direct_logits(inputs[static_cast<std::size_t>(i)]))
        << "request " << i;
    EXPECT_GE(r.latency.exec_us, 0);
  }
  client.close();
  net.stop();
  server.stop();
  EXPECT_EQ(server.metrics().counter("serve.completed").value(), kRequests);
}

TEST(NetServe, LoadGeneratorDrivesTheSocketPath) {
  SharedModel& m = shared_model();
  serve::ServerOptions opts;
  opts.workers = 2;
  serve::Server server(m.registry, "vgg", opts);
  serve::NetServer net(server);
  serve::NetClient client("127.0.0.1", net.port());

  serve::LoadOptions load;
  load.requests = 8;
  load.concurrency = 2;
  load.seed = 11;
  const serve::LoadReport report =
      serve::run_load(client, m.net.input_shape(), load);
  EXPECT_EQ(report.submitted, 8);
  EXPECT_EQ(report.ok, 8);
  EXPECT_EQ(report.errors, 0);
  EXPECT_GT(report.goodput_rps, 0.0);
}

TEST(NetServe, BadShapeComesBackAsErrorResponse) {
  SharedModel& m = shared_model();
  Rng rng(605);
  nn::FmShape bad = m.net.input_shape();
  bad.c += 1;
  serve::Server server(m.registry, "vgg", {});
  serve::NetServer net(server);
  serve::NetClient client("127.0.0.1", net.port());

  const serve::Response r = client.submit(random_fm(bad, rng)).get();
  EXPECT_EQ(r.status, serve::Status::kError);
  EXPECT_FALSE(r.executed);
  EXPECT_FALSE(r.error.empty());

  // The connection survives an execution error; a well-formed request on
  // the same client still completes.
  const nn::FeatureMapI8 good = random_fm(m.net.input_shape(), rng);
  const serve::Response ok = client.submit(good).get();
  EXPECT_EQ(ok.status, serve::Status::kOk);
  EXPECT_EQ(ok.logits, direct_logits(good));
}

TEST(NetServe, WireCancelRemovesQueuedRequest) {
  SharedModel& m = shared_model();
  Rng rng(606);
  serve::ServerOptions opts;
  opts.workers = 1;
  // No batch can fill, so each request waits out a second of batch
  // formation in the queue, where the wire cancel finds it.
  opts.batch.max_batch = 4;
  opts.batch.max_queue_delay_us = 1'000'000;
  serve::Server server(m.registry, "vgg", opts);
  serve::NetServer net(server);
  serve::NetClient client("127.0.0.1", net.port());

  std::future<serve::Response> head =
      client.submit(random_fm(m.net.input_shape(), rng));
  while (server.metrics().counter("serve.batches").value() < 1)
    std::this_thread::sleep_for(std::chrono::microseconds(100));

  std::uint64_t wire_id = 0;
  std::future<serve::Response> doomed =
      client.submit(random_fm(m.net.input_shape(), rng), {}, &wire_id);
  // The request is queued behind the dispatched head; make sure the server
  // has actually admitted it (its id is mapped once submit_with returned)
  // before cancelling.
  while (server.metrics().counter("serve.admitted").value() < 2)
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  ASSERT_TRUE(client.cancel(wire_id));

  const serve::Response r = doomed.get();
  EXPECT_EQ(r.status, serve::Status::kCancelled);
  EXPECT_FALSE(r.executed);
  EXPECT_EQ(head.get().status, serve::Status::kOk);
  EXPECT_EQ(server.metrics().counter("serve.cancelled_by_client").value(), 1);
}

TEST(NetServe, MetricsEndpointServesPrometheusMatchingRegistry) {
  SharedModel& m = shared_model();
  Rng rng(607);
  serve::Server server(m.registry, "vgg", {});
  serve::NetServer net(server);
  serve::NetClient client("127.0.0.1", net.port());

  constexpr int kRequests = 3;
  for (int i = 0; i < kRequests; ++i)
    EXPECT_EQ(client.submit(random_fm(m.net.input_shape(), rng)).get().status,
              serve::Status::kOk);

  const std::string text = client.metrics_text();
  // The exposition matches the live registry value-for-value.
  EXPECT_NE(text.find("# TYPE tsca_serve_completed counter\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("tsca_serve_completed " + std::to_string(kRequests) +
                      "\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE tsca_serve_latency_us histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("tsca_serve_latency_us_count " +
                      std::to_string(kRequests) + "\n"),
            std::string::npos);
  const std::string sum_line =
      "tsca_serve_latency_us_sum " +
      std::to_string(server.metrics().histogram("serve.latency_us").sum());
  EXPECT_NE(text.find(sum_line), std::string::npos) << text;
  EXPECT_NE(text.find("_bucket{le=\"+Inf\"} " + std::to_string(kRequests)),
            std::string::npos);
}

TEST(NetServe, MalformedFrameDropsConnectionNotServer) {
  SharedModel& m = shared_model();
  Rng rng(608);
  serve::Server server(m.registry, "vgg", {});
  serve::NetServer net(server);

  // Raw socket speaking garbage: a frame with an unknown type octet.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(net.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const std::uint8_t garbage[] = {3, 0, 0, 0, 99, 1, 2};  // len=3, type=99
  ASSERT_EQ(::send(fd, garbage, sizeof(garbage), 0),
            static_cast<ssize_t>(sizeof(garbage)));
  // The server drops the connection: recv sees EOF, not a hang.
  char buf[8];
  EXPECT_EQ(::recv(fd, buf, sizeof(buf), 0), 0);
  ::close(fd);

  // And keeps serving well-formed clients.
  serve::NetClient client("127.0.0.1", net.port());
  const nn::FeatureMapI8 good = random_fm(m.net.input_shape(), rng);
  EXPECT_EQ(client.submit(good).get().status, serve::Status::kOk);
}

// The same hostile frame over the socket: a huge claimed feature map costs
// the connection (ProtocolError → drop), never the process and never the
// memory — pre-fix this test died with the server on std::terminate.
TEST(NetServe, HugeClaimedRequestDropsConnectionNotServer) {
  SharedModel& m = shared_model();
  Rng rng(611);
  serve::Server server(m.registry, "vgg", {});
  serve::NetServer net(server);

  std::vector<std::uint8_t> payload =
      serve::encode_request(1, {}, random_fm({1, 1, 1}, rng));
  for (std::size_t i = 26; i < 32; ++i) payload[i] = 0xff;
  const int fd = connect_raw(net.port());
  ASSERT_GE(fd, 0);
  serve::write_frame(fd, serve::MsgType::kRequest, payload);
  char buf[8];
  EXPECT_EQ(::recv(fd, buf, sizeof(buf), 0), 0);  // dropped: EOF, no crash
  ::close(fd);

  // And keeps serving well-formed clients.
  serve::NetClient client("127.0.0.1", net.port());
  EXPECT_EQ(client.submit(random_fm(m.net.input_shape(), rng)).get().status,
            serve::Status::kOk);
}

// Two in-flight requests sharing a wire_id would cross their response and
// cancel routing (the first completion erases the second's cancel mapping);
// the server rejects the duplicate like any other malformed traffic.
TEST(NetServe, DuplicateInFlightWireIdDropsConnection) {
  SharedModel& m = shared_model();
  Rng rng(612);
  serve::ServerOptions opts;
  opts.workers = 1;
  // The first request cannot fill a batch: it waits out a second of batch
  // formation, so it is still in flight when its duplicate arrives.
  opts.batch.max_batch = 4;
  opts.batch.max_queue_delay_us = 1'000'000;
  serve::Server server(m.registry, "vgg", opts);
  serve::NetServer net(server);

  const int fd = connect_raw(net.port());
  ASSERT_GE(fd, 0);
  const std::vector<std::uint8_t> payload =
      serve::encode_request(7, {}, random_fm(m.net.input_shape(), rng));
  serve::write_frame(fd, serve::MsgType::kRequest, payload);
  serve::write_frame(fd, serve::MsgType::kRequest, payload);
  char buf[8];
  EXPECT_EQ(::recv(fd, buf, sizeof(buf), 0), 0);  // duplicate costs the conn
  ::close(fd);
}

// Regression test for the per-connection leak: close()d connections kept
// their fd and two finished threads in conns_ until stop(), so a long-lived
// server (one metrics scrape per connection, forever) ran out of fds.  The
// accept loop now reaps finished connections, so churning clients must
// drive the tracked set back down to the live probe itself.
TEST(NetServe, FinishedConnectionsAreReaped) {
  SharedModel& m = shared_model();
  Rng rng(613);
  serve::Server server(m.registry, "vgg", {});
  serve::NetServer net(server);

  for (int i = 0; i < 8; ++i) {
    serve::NetClient c("127.0.0.1", net.port());
    EXPECT_EQ(c.submit(random_fm(m.net.input_shape(), rng)).get().status,
              serve::Status::kOk);
    c.close();
  }
  // Reaping rides the accept path, and a just-closed connection's threads
  // wind down asynchronously — so probe until the sweep has caught up: the
  // tracked set must shrink to the probe plus at most one straggler.
  std::size_t tracked = ~std::size_t{0};
  for (int i = 0; i < 500 && tracked > 2; ++i) {
    serve::NetClient probe("127.0.0.1", net.port());
    tracked = net.tracked_connections();
    probe.close();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_LE(tracked, 2u) << "closed connections were never reaped";
}

// Reference logits for a registry-served model: acquire a lease and run the
// compiled program on a private simulator instance.
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

// An unknown model id over the wire is a typed rejection — the request
// fails with kRejectedUnknownModel, but the connection survives and the
// next request (routed to the server default) completes normally.
TEST(NetServe, UnknownModelRejectionKeepsConnectionAlive) {
  const zoo::ZooModel mlp = zoo::make_ternary_mlp(13);
  driver::ProgramRegistry registry(core::ArchConfig::k256_opt());
  registry.add_model("mlp", mlp.net, mlp.model);
  serve::Server server(registry, "mlp", {});
  serve::NetServer net(server);
  serve::NetClient client("127.0.0.1", net.port());

  Rng rng(614);
  serve::SubmitOptions unknown;
  unknown.model_id = "resnet_900";  // well-formed id, never registered
  const serve::Response r =
      client.submit(random_fm(mlp.net.input_shape(), rng), unknown).get();
  EXPECT_EQ(r.status, serve::Status::kRejectedUnknownModel);
  EXPECT_FALSE(r.executed);

  const nn::FeatureMapI8 good = random_fm(mlp.net.input_shape(), rng);
  const serve::Response ok = client.submit(good).get();
  EXPECT_EQ(ok.status, serve::Status::kOk);
  EXPECT_EQ(ok.logits, registry_logits(registry, "mlp", good));
  EXPECT_EQ(
      server.metrics().counter("serve.rejected_unknown_model").value(), 1);
}

// Two models with different input shapes interleaved over one socket: the
// model id routes each request to its own program, results stay bit-exact
// per model, and per-model serving metrics attribute the traffic.
TEST(NetServe, RoutesMixedModelsOverOneSocket) {
  const zoo::ZooModel mlp = zoo::make_ternary_mlp(13);
  const zoo::ZooModel mobile = zoo::make_mobile_depthwise(11);
  driver::ProgramRegistry registry(core::ArchConfig::k256_opt());
  registry.add_model("mlp", mlp.net, mlp.model);
  registry.add_model("mobile", mobile.net, mobile.model);
  serve::ServerOptions opts;
  opts.workers = 2;
  serve::Server server(registry, "mlp", opts);
  serve::NetServer net(server);
  serve::NetClient client("127.0.0.1", net.port());

  Rng rng(615);
  constexpr int kPerModel = 3;
  std::vector<nn::FeatureMapI8> mlp_in, mobile_in;
  std::vector<std::future<serve::Response>> mlp_f, mobile_f;
  for (int i = 0; i < kPerModel; ++i) {
    serve::SubmitOptions to_mlp;
    to_mlp.model_id = "mlp";
    mlp_in.push_back(random_fm(mlp.net.input_shape(), rng));
    mlp_f.push_back(client.submit(mlp_in.back(), to_mlp));
    serve::SubmitOptions to_mobile;
    to_mobile.model_id = "mobile";
    mobile_in.push_back(random_fm(mobile.net.input_shape(), rng));
    mobile_f.push_back(client.submit(mobile_in.back(), to_mobile));
  }
  for (int i = 0; i < kPerModel; ++i) {
    const serve::Response a = mlp_f[static_cast<std::size_t>(i)].get();
    EXPECT_EQ(a.status, serve::Status::kOk);
    EXPECT_EQ(a.logits,
              registry_logits(registry, "mlp",
                              mlp_in[static_cast<std::size_t>(i)]))
        << "mlp request " << i;
    const serve::Response b = mobile_f[static_cast<std::size_t>(i)].get();
    EXPECT_EQ(b.status, serve::Status::kOk);
    EXPECT_EQ(b.logits,
              registry_logits(registry, "mobile",
                              mobile_in[static_cast<std::size_t>(i)]))
        << "mobile request " << i;
  }
  client.close();
  net.stop();
  server.stop();
  EXPECT_EQ(server.metrics().counter("serve.model.mlp.completed").value(),
            kPerModel);
  EXPECT_EQ(server.metrics().counter("serve.model.mobile.completed").value(),
            kPerModel);
}

TEST(NetServe, ConnectionsAreDistinctFairShareClients) {
  SharedModel& m = shared_model();
  Rng rng(609);
  serve::ServerOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 2;
  // No batch can fill (max_batch is above the queue's capacity), so the
  // worker forms each one for the whole second: the flood waits in the
  // queue, where the newcomer's push can evict it, however fast a batch
  // executes.
  opts.batch.max_batch = 3;
  opts.batch.max_queue_delay_us = 1'000'000;
  serve::Server server(m.registry, "vgg", opts);
  serve::NetServer net(server);
  serve::NetClient flooder("127.0.0.1", net.port());
  serve::NetClient newcomer("127.0.0.1", net.port());

  std::future<serve::Response> head =
      flooder.submit(random_fm(m.net.input_shape(), rng));
  while (server.metrics().counter("serve.batches").value() < 1)
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  // The flooding connection fills the queue; the second connection's push
  // evicts one of its entries (share = 2/2 = 1 each).
  std::vector<std::future<serve::Response>> flood;
  for (int i = 0; i < 2; ++i)
    flood.push_back(flooder.submit(random_fm(m.net.input_shape(), rng)));
  while (server.metrics().counter("serve.admitted").value() < 3)
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  std::future<serve::Response> in =
      newcomer.submit(random_fm(m.net.input_shape(), rng));

  int quota = 0, ok = 0;
  for (auto& f : flood) {
    const serve::Response r = f.get();
    if (r.status == serve::Status::kRejectedQuota) ++quota;
    if (r.status == serve::Status::kOk) ++ok;
  }
  EXPECT_EQ(quota, 1) << "one flooder entry must yield to the newcomer";
  EXPECT_EQ(ok, 1);
  EXPECT_EQ(in.get().status, serve::Status::kOk);
  EXPECT_EQ(head.get().status, serve::Status::kOk);
}

}  // namespace
}  // namespace tsca
