// Open-loop socket client.
//
// serve::run_load times from the actual submit and reports server-side
// phase sums through power-of-two histogram buckets, so the benchmark
// brings its own client.  Per connection there is one generator thread,
// which writes a pre-scheduled arrival list with encode_request +
// write_frame, and one reader thread, which stamps each response's receipt
// with steady_clock and checks its logits against the reference.  Latency
// runs from an arrival's *due* time, so a stalled server (or a late
// generator) is charged to every request it delays.  Both client-side
// delays are measured so a run can be rejected when they distort it: how
// late the generator sent, and how long a response sat readable in the
// socket before the reader took it (from the kernel's receive timestamp).
#pragma once

#include <sched.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "bench.hpp"
#include "models.hpp"
#include "obs/trace.hpp"
#include "serve/request.hpp"

namespace bench {

struct Arrival {
  double due_s = 0.0;  // seconds after the run's start
  int slice = -1;      // measured slice index; -1 = warm-up
  int model = 0;       // index into the run's models
  int image = 0;       // index into that model's pool
};

// One connection's traffic: an SLO class and its arrival schedule.
struct StreamSpec {
  std::string name;
  int priority = 0;
  std::int64_t deadline_us = 0;
  std::vector<Arrival> arrivals;
};

// One response, judged on receipt.
struct Reply {
  bool received = false;
  double recv_s = 0.0;  // seconds after the run's start
  // How long the response sat readable before the reader got to it, from
  // the kernel's receive timestamp; NaN when unknown.
  double read_delay_us = std::numeric_limits<double>::quiet_NaN();
  tsca::serve::Status status = tsca::serve::Status::kCancelled;
  bool executed = false;
  bool failed = false;  // see judge()
  int batch_size = 0;
  tsca::serve::PhaseLatency server;
};

// A failed op is a kError/kCancelled/unknown-model/shutdown response, a
// kOk response that did not execute, or an executed response whose logits
// differ from `expected`.  Shed, refused and late responses are SLO misses,
// not failures.
Reply judge(const tsca::serve::Response& response,
            const std::vector<std::int8_t>& expected, double recv_s);

// The request's latency for the percentiles: receipt − due in µs when it
// came back kOk, verified and within its deadline; +inf otherwise (shed,
// refused, late, failed or missing).
double slo_latency_us(const Reply& reply, double due_s,
                      std::int64_t deadline_us);

struct StreamResult {
  std::vector<double> send_s;  // send start per arrival (NaN = never sent)
  std::vector<Reply> replies;
  std::vector<double> encode_ns;  // per request frame
  std::vector<double> decode_ns;  // per response frame
  int transport_errors = 0;
};

// Opens one loopback connection per stream, runs every stream open loop
// from `start` until each arrival was sent, then waits for the outstanding
// replies (missing ones stay !received).  When `trace` is set, every
// `trace_every`-th measured request records its spans on
// "bench/<stream>/..." tracks.
std::vector<StreamResult> run_streams(std::uint16_t port,
                                      const std::vector<StreamSpec>& streams,
                                      const std::vector<const Model*>& models,
                                      Clock::time_point start,
                                      tsca::obs::Recorder* trace,
                                      int trace_every);

// One request over a fresh connection, waited for synchronously: the
// end of a cold start.  Returns the judged reply.
Reply probe(std::uint16_t port, const Model& model, const std::string& id);

// CPU partition between the load generator and the server under test.
// The client's threads run on CPU 0 (run_streams pins them); threads the
// server starts while a ServerCpus is alive inherit CPUs 1..n-1.  Without
// it, a woken server thread shares the spinning generator's CPU and the
// generator runs late.  Hosts with fewer than 2 CPUs are left alone.
class ServerCpus {
 public:
  ServerCpus();   // restricts the calling thread to CPUs 1..n-1
  ~ServerCpus();  // restores its previous mask
  ServerCpus(const ServerCpus&) = delete;
  ServerCpus& operator=(const ServerCpus&) = delete;

 private:
  bool changed_ = false;
  cpu_set_t saved_{};
};

}  // namespace bench
