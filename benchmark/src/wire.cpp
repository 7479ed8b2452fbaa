#include "wire.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <ctime>
#include <limits>
#include <memory>
#include <thread>

#include "serve/protocol.hpp"
#include "stats.hpp"

namespace bench {

namespace {

using namespace tsca;
using serve::Status;

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0)
    throw serve::ProtocolError(std::string("socket: ") + std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const int err = errno;
    ::close(fd);
    throw serve::ProtocolError(std::string("connect: ") + std::strerror(err));
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // Receive timestamps: how long a response waited for the reader.
  ::setsockopt(fd, SOL_SOCKET, SO_TIMESTAMPNS, &one, sizeof(one));
  return fd;
}

// Blocks until `fd` has data to read and sets `delay_us` to how long the
// data at the head of the receive queue had been waiting there, from the
// kernel's receive timestamp (NaN when none came with it).  When several
// responses queue up the kernel keeps only the latest one's timestamp, so
// the delay is then a lower bound.  False on EOF or shutdown.
bool wait_readable(int fd, double& delay_us) {
  char byte = 0;
  alignas(cmsghdr) char control[CMSG_SPACE(sizeof(timespec))];
  iovec iov{&byte, 1};
  msghdr msg{};
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  for (;;) {
    msg.msg_control = control;
    msg.msg_controllen = sizeof(control);
    const ssize_t r = ::recvmsg(fd, &msg, MSG_PEEK);
    if (r > 0) break;
    if (r == 0) return false;
    if (errno == EINTR) continue;
    if (errno == EINVAL || errno == ENOTCONN) return false;  // shut down
    throw serve::ProtocolError(std::string("recvmsg: ") +
                               std::strerror(errno));
  }
  timespec now{};
  ::clock_gettime(CLOCK_REALTIME, &now);
  delay_us = std::numeric_limits<double>::quiet_NaN();
  for (cmsghdr* c = CMSG_FIRSTHDR(&msg); c != nullptr;
       c = CMSG_NXTHDR(&msg, c))
    if (c->cmsg_level == SOL_SOCKET && c->cmsg_type == SCM_TIMESTAMPNS) {
      timespec ts{};
      std::memcpy(&ts, CMSG_DATA(c), sizeof(ts));
      delay_us = static_cast<double>(now.tv_sec - ts.tv_sec) * 1e6 +
                 static_cast<double>(now.tv_nsec - ts.tv_nsec) * 1e-3;
    }
  return true;
}

// Owns a connected socket.
class Socket {
 public:
  explicit Socket(std::uint16_t port) : fd_(connect_loopback(port)) {}
  ~Socket() { ::close(fd_); }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  int fd() const { return fd_; }
  // Unblocks a reader parked in read_frame (it sees EOF).
  void shutdown() { ::shutdown(fd_, SHUT_RDWR); }

 private:
  int fd_;
};

serve::SubmitOptions submit_options(const StreamSpec& s, const Model& m) {
  serve::SubmitOptions o;
  o.deadline_us = s.deadline_us;
  o.priority = s.priority;
  o.model_id = m.id;
  return o;
}

// The calling thread's allowed CPUs and the first of them, which is the
// load generator's CPU; false when fewer than two are allowed.
bool split_cpus(cpu_set_t& mask, int& client_cpu) {
  if (::sched_getaffinity(0, sizeof(mask), &mask) != 0 ||
      CPU_COUNT(&mask) < 2)
    return false;
  for (client_cpu = 0; !CPU_ISSET(client_cpu, &mask); ++client_cpu) {
  }
  return true;
}

void pin_to_client_cpu() {
  cpu_set_t mask;
  int cpu = 0;
  if (!split_cpus(mask, cpu)) return;
  CPU_ZERO(&mask);
  CPU_SET(cpu, &mask);
  ::sched_setaffinity(0, sizeof(mask), &mask);
}

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

// Per-stream state shared by its generator and reader threads.  The
// generator owns send_s/encode_ns, the reader owns replies/decode_ns; the
// reader sees send times only through `sent_ns` (for trace spans).
struct Live {
  explicit Live(std::size_t n) : sent_ns(n) {}
  std::vector<std::atomic<std::int64_t>> sent_ns;  // 0 = not yet sent
  std::atomic<std::size_t> received{0};
  std::atomic<bool> writer_failed{false};
};

void generate(int fd, const StreamSpec& s,
              const std::vector<const Model*>& models, Clock::time_point start,
              StreamResult& out, Live& live) {
  std::vector<serve::SubmitOptions> opts;
  for (const Model* m : models) opts.push_back(submit_options(s, *m));
  std::vector<std::uint8_t> scratch;
  out.encode_ns.reserve(s.arrivals.size());
  for (std::size_t i = 0; i < s.arrivals.size(); ++i) {
    const Arrival& a = s.arrivals[i];
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(a.due_s));
    // Spin, yielding, rather than sleep: an idle vCPU can take
    // milliseconds to wake on a virtualized host, which would make the
    // generator, not the server, the source of latency.
    while (Clock::now() < due) ::sched_yield();
    const Clock::time_point t0 = Clock::now();
    const Model& m = *models[static_cast<std::size_t>(a.model)];
    const std::vector<std::uint8_t> payload = serve::encode_request(
        i, opts[static_cast<std::size_t>(a.model)],
        m.images[static_cast<std::size_t>(a.image)]);
    const Clock::time_point t1 = Clock::now();
    serve::write_frame(fd, serve::MsgType::kRequest, payload, scratch);
    out.send_s[i] = seconds_between(start, t0);
    out.encode_ns.push_back(ns_between(t0, t1));
    live.sent_ns[i].store(
        std::max<std::int64_t>(1, static_cast<std::int64_t>(
                                      ns_between(start, t0))),
        std::memory_order_release);
  }
}

void record_spans(obs::Recorder& rec, const StreamSpec& s, std::size_t i,
                  const Reply& r, Clock::time_point start,
                  std::int64_t sent_ns) {
  const Arrival& a = s.arrivals[i];
  const auto at = [&](double s_after_start) {
    return trace_us(start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(s_after_start)));
  };
  const std::uint64_t due = at(a.due_s);
  const std::uint64_t recv = at(r.recv_s);
  const std::uint64_t sent =
      sent_ns > 0 ? at(static_cast<double>(sent_ns) * 1e-9) : due;
  rec.track("bench/" + s.name + "/requests")
      .complete("req " + std::to_string(i), serve::status_name(r.status), due,
                recv > due ? recv - due : 0,
                {{"model", a.model}, {"batch", r.batch_size}});
  obs::Track& stages = rec.track("bench/" + s.name + "/stages");
  stages.complete("gen.late", "client", due, sent > due ? sent - due : 0);
  // The server reports only durations; they are laid end to end from the
  // send, and whatever the client saw beyond them is wire time (encode,
  // both directions, decode — the in/out split is not visible here).
  std::uint64_t t = sent;
  using Stage = std::pair<const char*, std::int64_t>;
  for (const auto& [name, us] : {Stage{"server.queued", r.server.queued_us},
                                 Stage{"server.dispatch", r.server.batch_us},
                                 Stage{"server.exec", r.server.exec_us}}) {
    const auto d = static_cast<std::uint64_t>(std::max<std::int64_t>(us, 0));
    stages.complete(name, "server", t, d);
    t += d;
  }
  if (recv > t) stages.complete("wire", "wire", t, recv - t);
}

void read_replies(int fd, const StreamSpec& s,
                  const std::vector<const Model*>& models,
                  Clock::time_point start, StreamResult& out, Live& live,
                  obs::Recorder* trace, int trace_every) {
  serve::Frame frame;
  out.decode_ns.reserve(s.arrivals.size());
  while (live.received.load(std::memory_order_relaxed) < s.arrivals.size()) {
    double read_delay_us = 0.0;
    if (!wait_readable(fd, read_delay_us)) return;  // shut down / closed
    if (!serve::read_frame(fd, frame)) return;
    const Clock::time_point t_recv = Clock::now();
    if (frame.type != serve::MsgType::kResponse) {
      ++out.transport_errors;
      continue;
    }
    serve::WireResponse wr = serve::decode_response(frame.payload);
    out.decode_ns.push_back(ns_between(t_recv, Clock::now()));
    if (wr.wire_id >= s.arrivals.size() || out.replies[wr.wire_id].received) {
      ++out.transport_errors;
      continue;
    }
    const std::size_t i = wr.wire_id;
    const Arrival& a = s.arrivals[i];
    const Model& m = *models[static_cast<std::size_t>(a.model)];
    out.replies[i] =
        judge(wr.response, m.expected[static_cast<std::size_t>(a.image)],
              seconds_between(start, t_recv));
    out.replies[i].read_delay_us = read_delay_us;
    if (trace != nullptr && a.slice >= 0 &&
        i % static_cast<std::size_t>(trace_every) == 0)
      record_spans(*trace, s, i, out.replies[i], start,
                   live.sent_ns[i].load(std::memory_order_acquire));
    live.received.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace

Reply judge(const serve::Response& response,
            const std::vector<std::int8_t>& expected, double recv_s) {
  Reply r;
  r.received = true;
  r.recv_s = recv_s;
  r.status = response.status;
  r.executed = response.executed;
  r.batch_size = response.batch_size;
  r.server = response.latency;
  switch (response.status) {
    case Status::kOk:
      r.failed = !response.executed;
      break;
    case Status::kDeadlineMissed:
    case Status::kRejectedQueueFull:
    case Status::kRejectedQuota:
      break;  // SLO misses
    case Status::kRejectedShutdown:
    case Status::kCancelled:
    case Status::kError:
    case Status::kRejectedUnknownModel:
      r.failed = true;
      break;
  }
  if (response.executed && response.logits != expected) r.failed = true;
  return r;
}

double slo_latency_us(const Reply& reply, double due_s,
                      std::int64_t deadline_us) {
  if (!reply.received || reply.failed || reply.status != Status::kOk)
    return kInf;
  const double us = (reply.recv_s - due_s) * 1e6;
  return us <= static_cast<double>(deadline_us) ? us : kInf;
}

std::vector<StreamResult> run_streams(std::uint16_t port,
                                      const std::vector<StreamSpec>& streams,
                                      const std::vector<const Model*>& models,
                                      Clock::time_point start,
                                      obs::Recorder* trace, int trace_every) {
  const std::size_t n = streams.size();
  std::vector<StreamResult> results(n);
  std::vector<std::unique_ptr<Live>> live;
  std::vector<std::unique_ptr<Socket>> sockets;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t count = streams[k].arrivals.size();
    results[k].send_s.assign(count, std::numeric_limits<double>::quiet_NaN());
    results[k].replies.resize(count);
    live.push_back(std::make_unique<Live>(count));
    sockets.push_back(std::make_unique<Socket>(port));
  }

  std::vector<std::thread> readers;
  std::vector<std::thread> writers;
  for (std::size_t k = 0; k < n; ++k) {
    readers.emplace_back([&, k] {
      pin_to_client_cpu();
      try {
        read_replies(sockets[k]->fd(), streams[k], models, start, results[k],
                     *live[k], trace, trace_every);
      } catch (const std::exception&) {
        ++results[k].transport_errors;
      }
    });
  }
  for (std::size_t k = 0; k < n; ++k) {
    writers.emplace_back([&, k] {
      pin_to_client_cpu();
      try {
        generate(sockets[k]->fd(), streams[k], models, start, results[k],
                 *live[k]);
      } catch (const std::exception&) {
        live[k]->writer_failed.store(true);
      }
    });
  }
  for (std::thread& t : writers) t.join();

  // Every reply is due within its deadline plus a few batch times; allow a
  // generous margin before declaring the rest missing.
  std::int64_t max_deadline_us = 0;
  for (const StreamSpec& s : streams)
    max_deadline_us = std::max(max_deadline_us, s.deadline_us);
  const Clock::time_point give_up =
      Clock::now() + std::chrono::microseconds(max_deadline_us) +
      std::chrono::seconds(2);
  for (std::size_t k = 0; k < n; ++k)
    while (live[k]->received.load(std::memory_order_relaxed) <
               streams[k].arrivals.size() &&
           Clock::now() < give_up)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  for (auto& s : sockets) s->shutdown();
  for (std::thread& t : readers) t.join();
  for (std::size_t k = 0; k < n; ++k)
    if (live[k]->writer_failed.load()) ++results[k].transport_errors;
  return results;
}

ServerCpus::ServerCpus() {
  cpu_set_t mask;
  int client_cpu = 0;
  if (!split_cpus(mask, client_cpu)) return;
  saved_ = mask;
  CPU_CLR(client_cpu, &mask);
  changed_ = ::sched_setaffinity(0, sizeof(mask), &mask) == 0;
}

ServerCpus::~ServerCpus() {
  if (changed_) ::sched_setaffinity(0, sizeof(saved_), &saved_);
}

Reply probe(std::uint16_t port, const Model& model, const std::string& id) {
  Socket sock(port);
  serve::SubmitOptions opts;
  opts.model_id = id;
  const Clock::time_point t0 = Clock::now();
  serve::write_frame(sock.fd(), serve::MsgType::kRequest,
                     serve::encode_request(0, opts, model.images.front()));
  serve::Frame frame;
  if (!serve::read_frame(sock.fd(), frame) ||
      frame.type != serve::MsgType::kResponse)
    throw serve::ProtocolError("probe: no response");
  const serve::WireResponse wr = serve::decode_response(frame.payload);
  return judge(wr.response, model.expected.front(),
               seconds_between(t0, Clock::now()));
}

}  // namespace bench
