#include "net/wire_server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <deque>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

#include "net/payload.hpp"
#include "service/admission.hpp"

namespace chainckpt::net {

namespace {

/// Frames per sendmsg batch (IOV_MAX is far larger; 16 keeps the iovec
/// array on the stack while still aggregating whole reply bursts).
constexpr std::size_t kMaxIov = 16;

/// DRR quantum in admission units (service::price_units currency): one
/// visit affords an ADV* job at n = 200.
constexpr double kDrrQuantumUnits = 8.0;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

using Counter = std::atomic<std::uint64_t>;

void bump(Counter& counter, std::uint64_t by = 1) noexcept {
  counter.fetch_add(by, std::memory_order_relaxed);
}

/// WireServerStats as relaxed atomics: the I/O thread bumps them, and
/// stats() loads them from any thread.
struct Counters {
  Counter connections_accepted{0};
  Counter connections_closed{0};
  Counter frames_received{0};
  Counter frames_sent{0};
  Counter flushes{0};
  Counter bytes_received{0};
  Counter bytes_sent{0};
  Counter submits_accepted{0};
  Counter throttled{0};
  Counter backpressured{0};
  Counter submits_rejected{0};
  Counter results_streamed{0};
  Counter protocol_errors{0};

  WireServerStats load() const noexcept {
    const auto get = [](const Counter& counter) {
      return counter.load(std::memory_order_relaxed);
    };
    WireServerStats out;
    out.connections_accepted = get(connections_accepted);
    out.connections_closed = get(connections_closed);
    out.frames_received = get(frames_received);
    out.frames_sent = get(frames_sent);
    out.flushes = get(flushes);
    out.bytes_received = get(bytes_received);
    out.bytes_sent = get(bytes_sent);
    out.submits_accepted = get(submits_accepted);
    out.throttled = get(throttled);
    out.backpressured = get(backpressured);
    out.submits_rejected = get(submits_rejected);
    out.results_streamed = get(results_streamed);
    out.protocol_errors = get(protocol_errors);
    return out;
  }
};

/// A live request of one connection.
struct Request {
  service::JobHandle handle;
  /// Its terminal status goes out as a streamed kResult, not in a poll
  /// reply.
  bool streamed = false;
};

struct Connection {
  int fd = -1;
  bool tenant_bound = false;
  std::uint64_t tenant = 0;
  /// Read buffer; [parse_offset, size) is the unparsed suffix.
  std::vector<std::uint8_t> inbuf;
  std::size_t parse_offset = 0;
  /// Pending reply frames; front_offset is how much of the front frame a
  /// partial send already pushed out.
  std::deque<std::vector<std::uint8_t>> outbox;
  std::size_t front_offset = 0;
  /// Flush what is queued, then close (kGoodbye or an unsyncable stream).
  bool closing = false;
  bool dead = false;  ///< socket error/EOF: close without flushing
  /// Live requests by request id.  A request leaves once the frame
  /// carrying its terminal status is queued: its streamed kResult, or
  /// else a kStatus poll reply.
  std::map<std::uint64_t, Request> requests;
};

/// Where a streamed job's kResult goes.  A route exists exactly while its
/// streamed request is live: both are made together after submit() and
/// erased together when the kResult is queued or the connection closes.
struct Route {
  int fd = -1;
  std::uint64_t request_id = 0;
};

/// One quota-pending submission sitting in the DRR ingress.
struct Ingress {
  int fd = -1;
  std::uint64_t request_id = 0;
  std::uint16_t flags = 0;
  double units = 0.0;
  service::JobRequest request;
};

/// Finished jobs on their way from the service's threads to the I/O
/// thread: the only edge state another thread touches.  It owns the wake
/// pipe, so a completion that runs after stop() (the service calls a copy
/// of its callback) still writes into an open pipe.
class Inbox {
 public:
  Inbox() {
    int fds[2];
    if (::pipe(fds) < 0) {
      throw std::runtime_error("wire server: pipe() failed");
    }
    set_nonblocking(fds[0]);
    set_nonblocking(fds[1]);
    wake_read_ = fds[0];
    wake_write_ = fds[1];
  }
  ~Inbox() {
    ::close(wake_read_);
    ::close(wake_write_);
  }
  Inbox(const Inbox&) = delete;
  Inbox& operator=(const Inbox&) = delete;

  /// The completion callback: queue the status, wake the I/O thread.
  void push(const service::JobStatus& status) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      jobs_.push_back(status);
    }
    wake();
  }

  void wake() const noexcept {
    const char byte = 1;
    // Best-effort: a full pipe already guarantees a pending wakeup.
    [[maybe_unused]] const ssize_t n = ::write(wake_write_, &byte, 1);
  }

  int wake_fd() const noexcept { return wake_read_; }

  void drain_wakes() const noexcept {
    std::uint8_t drain[256];
    while (::read(wake_read_, drain, sizeof(drain)) > 0) {
    }
  }

  /// Everything pushed so far, oldest first.
  std::vector<service::JobStatus> take() {
    std::vector<service::JobStatus> jobs;
    const std::lock_guard<std::mutex> lock(mutex_);
    jobs.swap(jobs_);
    return jobs;
  }

 private:
  std::mutex mutex_;
  std::vector<service::JobStatus> jobs_;
  int wake_read_ = -1;
  int wake_write_ = -1;
};

}  // namespace

/// What the I/O thread owns -- the listener, every connection with its
/// outbox and live requests, the result routes and the DRR ingress --
/// plus the few fields other threads reach: the stop flag, the inbox, the
/// counters and the (internally locked) tenant governor.
class WireServer::Edge {
 public:
  Edge(service::SolverService& service, const WireServerOptions& options)
      : governor(options.default_quota), service_(service), options_(options) {
    for (const auto& [tenant, quota] : options.tenant_quotas) {
      governor.set_quota(tenant, quota);
    }
  }

  /// The I/O thread's body; returns once `stopping` is set, with every
  /// connection and the listener closed.
  void run();

  /// Set by start() before the I/O thread runs.
  int listen_fd = -1;
  std::uint16_t port = 0;
  std::shared_ptr<Inbox> inbox;

  std::atomic<bool> stopping{false};
  Counters counters;
  TenantGovernor governor;

 private:
  using ConnectionMap = std::map<int, Connection>;

  void accept_ready();
  /// Returns false when the peer is gone.
  bool read_ready(Connection& conn);
  void parse_frames(Connection& conn);
  void handle_frame(Connection& conn, const FrameHeader& header,
                    const std::uint8_t* payload, std::size_t payload_size);
  void drain_ingress();
  void deliver_results();
  void flush(Connection& conn);
  ConnectionMap::iterator close_connection(ConnectionMap::iterator it);
  void send_frame(Connection& conn, const FrameHeader& header,
                  const std::vector<std::uint8_t>& payload);
  void send_error(Connection& conn, std::uint64_t tenant,
                  std::uint64_t request_id, WireError code,
                  const std::string& message);

  service::SolverService& service_;
  const WireServerOptions& options_;
  ConnectionMap conns_;
  std::map<service::JobId, Route> routes_;
  DrrScheduler<Ingress> ingress_{kDrrQuantumUnits};
};

WireServer::WireServer(service::SolverService& service,
                       WireServerOptions options)
    : service_(service),
      options_(std::move(options)),
      edge_(std::make_unique<Edge>(service_, options_)) {}

WireServer::~WireServer() { stop(); }

void WireServer::start() {
  if (started_) return;

  auto inbox = std::make_shared<Inbox>();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("wire server: socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(fd);
    throw std::runtime_error("wire server: bad bind address " +
                             options_.bind_address);
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(fd, options_.listen_backlog) < 0) {
    ::close(fd);
    throw std::runtime_error("wire server: cannot bind " +
                             options_.bind_address + ":" +
                             std::to_string(options_.port));
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  set_nonblocking(fd);

  edge_->listen_fd = fd;
  edge_->port = ntohs(bound.sin_port);
  edge_->inbox = inbox;
  edge_->stopping = false;
  service_.on_completion(
      [inbox](const service::JobStatus& status) { inbox->push(status); });

  io_thread_ = std::thread([this] { edge_->run(); });
  started_ = true;
}

void WireServer::stop() {
  if (!started_) return;
  edge_->stopping = true;
  edge_->inbox->wake();
  if (io_thread_.joinable()) io_thread_.join();
  service_.on_completion({});
  started_ = false;
}

std::uint16_t WireServer::port() const noexcept { return edge_->port; }

WireServerStats WireServer::stats() const { return edge_->counters.load(); }

std::map<std::uint64_t, TenantEdgeStats> WireServer::tenant_stats() const {
  return edge_->governor.stats();
}

void WireServer::Edge::send_frame(Connection& conn, const FrameHeader& header,
                                  const std::vector<std::uint8_t>& payload) {
  conn.outbox.push_back(encode_frame(header, payload));
  bump(counters.frames_sent);
}

void WireServer::Edge::send_error(Connection& conn, std::uint64_t tenant,
                                  std::uint64_t request_id, WireError code,
                                  const std::string& message) {
  FrameHeader header;
  header.type = FrameType::kError;
  header.tenant_id = tenant;
  header.request_id = request_id;
  send_frame(conn, header, encode_error(ErrorPayload{code, message}));
  bump(counters.protocol_errors);
}

void WireServer::Edge::accept_ready() {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient error: next poll round
    set_nonblocking(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    conns_[fd].fd = fd;
    bump(counters.connections_accepted);
  }
}

bool WireServer::Edge::read_ready(Connection& conn) {
  std::uint8_t buffer[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(conn.fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      conn.inbuf.insert(conn.inbuf.end(), buffer, buffer + n);
      bump(counters.bytes_received, static_cast<std::uint64_t>(n));
      if (static_cast<std::size_t>(n) < sizeof(buffer)) return true;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    // 0 = orderly EOF, otherwise a hard error: either way the peer is
    // gone (a mid-frame disconnect lands here; any half-parsed frame is
    // simply dropped with the connection).
    conn.dead = true;
    return false;
  }
}

void WireServer::Edge::parse_frames(Connection& conn) {
  for (;;) {
    if (conn.closing || conn.dead) break;
    const std::uint8_t* data = conn.inbuf.data() + conn.parse_offset;
    const std::size_t avail = conn.inbuf.size() - conn.parse_offset;
    FrameHeader header;
    const DecodeStatus status =
        decode_header(data, avail, header, options_.max_payload_bytes);
    if (status == DecodeStatus::kNeedMoreData) break;
    if (status != DecodeStatus::kOk) {
      // The stream cannot be resynchronized past a bad header (the
      // length field is untrusted), so: one error frame, flush, close.
      const bool header_parsed = status == DecodeStatus::kBadType ||
                                 status == DecodeStatus::kPayloadTooLarge;
      send_error(conn, header_parsed ? header.tenant_id : 0,
                 header_parsed ? header.request_id : 0,
                 to_wire_error(status), to_string(to_wire_error(status)));
      conn.closing = true;
      break;
    }
    if (avail < kHeaderBytes + header.payload_size) break;
    bump(counters.frames_received);
    handle_frame(conn, header, data + kHeaderBytes, header.payload_size);
    conn.parse_offset += kHeaderBytes + header.payload_size;
  }
  if (conn.parse_offset == conn.inbuf.size()) {
    conn.inbuf.clear();
    conn.parse_offset = 0;
  } else if (conn.parse_offset > (1u << 20)) {
    conn.inbuf.erase(conn.inbuf.begin(),
                     conn.inbuf.begin() +
                         static_cast<std::ptrdiff_t>(conn.parse_offset));
    conn.parse_offset = 0;
  }
}

void WireServer::Edge::handle_frame(Connection& conn,
                                    const FrameHeader& header,
                                    const std::uint8_t* payload,
                                    std::size_t payload_size) {
  if (!conn.tenant_bound) {
    conn.tenant_bound = true;
    conn.tenant = header.tenant_id;
  } else if (header.tenant_id != conn.tenant) {
    send_error(conn, conn.tenant, header.request_id,
               WireError::kTenantMismatch, to_string(WireError::kTenantMismatch));
    return;
  }

  FrameHeader reply;
  reply.tenant_id = conn.tenant;
  reply.request_id = header.request_id;

  switch (header.type) {
    case FrameType::kHello: {
      std::string client;
      if (!decode_hello(payload, payload_size, client)) {
        send_error(conn, conn.tenant, header.request_id,
                   WireError::kBadPayload, "malformed hello");
        return;
      }
      WelcomePayload welcome;
      welcome.version = kProtocolVersion;
      welcome.max_payload_bytes = options_.max_payload_bytes;
      welcome.max_n = static_cast<std::uint32_t>(std::min<std::size_t>(
          service_.max_n(), std::numeric_limits<std::uint32_t>::max()));
      welcome.server = options_.server_name;
      reply.type = FrameType::kWelcome;
      send_frame(conn, reply, encode_welcome(welcome));
      return;
    }
    case FrameType::kSubmit: {
      if (conn.requests.count(header.request_id) != 0) {
        send_error(conn, conn.tenant, header.request_id,
                   WireError::kDuplicateRequest,
                   to_string(WireError::kDuplicateRequest));
        return;
      }
      Ingress item;
      if (!decode_job_request(payload, payload_size, item.request)) {
        send_error(conn, conn.tenant, header.request_id,
                   WireError::kBadPayload, "malformed job request");
        return;
      }
      item.fd = conn.fd;
      item.request_id = header.request_id;
      item.flags = header.flags;
      // The edge, not the payload, owns identity.
      item.request.options.tenant = conn.tenant;
      item.units = service::price_units(item.request.work.algorithm,
                                        item.request.work.chain.size());
      ingress_.push(conn.tenant, item.units, std::move(item));
      return;
    }
    case FrameType::kPoll: {
      const auto it = conn.requests.find(header.request_id);
      if (it == conn.requests.end()) {
        send_error(conn, conn.tenant, header.request_id,
                   WireError::kUnknownRequest,
                   to_string(WireError::kUnknownRequest));
        return;
      }
      const service::JobStatus status = service_.poll(it->second.handle);
      reply.type = FrameType::kStatus;
      send_frame(conn, reply, encode_job_status(status));
      // This reply carries the terminal status unless a kResult will.
      if (!it->second.streamed && service::is_terminal(status.state)) {
        conn.requests.erase(it);
      }
      return;
    }
    case FrameType::kCancel: {
      const auto it = conn.requests.find(header.request_id);
      if (it == conn.requests.end()) {
        send_error(conn, conn.tenant, header.request_id,
                   WireError::kUnknownRequest,
                   to_string(WireError::kUnknownRequest));
        return;
      }
      // Cancelling a queued job runs the completion callback on this
      // thread, which only puts the status in the inbox: a streamed
      // kResult follows this ack at the end of the cycle.
      const bool cancelled = service_.cancel(it->second.handle);
      reply.type = FrameType::kCancelAck;
      send_frame(conn, reply, encode_cancel_ack(cancelled));
      return;
    }
    case FrameType::kStatsRequest: {
      const std::string json = service_stats_to_json(service_.stats());
      reply.type = FrameType::kStatsReply;
      send_frame(conn, reply,
                 std::vector<std::uint8_t>(json.begin(), json.end()));
      return;
    }
    case FrameType::kGoodbye:
      conn.closing = true;
      return;
    case FrameType::kWelcome:
    case FrameType::kSubmitAck:
    case FrameType::kStatus:
    case FrameType::kCancelAck:
    case FrameType::kResult:
    case FrameType::kRetryAfter:
    case FrameType::kError:
    case FrameType::kStatsReply:
      send_error(conn, conn.tenant, header.request_id, WireError::kBadType,
                 "server-to-client frame type received from client");
      return;
  }
}

void WireServer::Edge::drain_ingress() {
  while (!ingress_.empty()) {
    auto [tenant, item] = ingress_.pop();
    // Connections close only at the end of a cycle, after this drain, so
    // the fd still names the submitting connection.
    Connection& conn = conns_.at(item.fd);
    // Peer gone before its submit was serviced: drop the job -- nothing
    // was charged or enqueued yet.
    if (conn.dead) continue;

    FrameHeader reply;
    reply.tenant_id = tenant;
    reply.request_id = item.request_id;

    // Second duplicate screen: two submits reusing one id in the same
    // poll cycle both pass the frame-time check (neither was registered
    // yet), so the ingress drain re-checks before submitting.
    if (conn.requests.count(item.request_id) != 0) {
      send_error(conn, tenant, item.request_id, WireError::kDuplicateRequest,
                 to_string(WireError::kDuplicateRequest));
      continue;
    }

    const ThrottleDecision decision =
        governor.try_charge(tenant, item.units, now_seconds());
    if (!decision.admitted) {
      RetryAfterPayload retry;
      retry.retry_after_ms = decision.retry_after_ms;
      retry.reason = service::RejectReason::kNone;
      retry.message = "tenant quota exhausted";
      reply.type = FrameType::kRetryAfter;
      send_frame(conn, reply, encode_retry_after(retry));
      bump(counters.throttled);
      continue;
    }

    service::JobHandle handle = service_.submit(std::move(item.request));
    const service::JobStatus status = service_.poll(handle);

    if (status.state == service::JobState::kRejected &&
        status.reject_reason == service::RejectReason::kQueueFull) {
      // Queue-full is backpressure, not failure: refund the quota charge
      // and tell the client when to retry the identical submit.
      governor.refund(tenant, item.units);
      RetryAfterPayload retry;
      retry.retry_after_ms = options_.queue_full_retry_ms;
      retry.reason = service::RejectReason::kQueueFull;
      retry.message = "admission queue full";
      reply.type = FrameType::kRetryAfter;
      send_frame(conn, reply, encode_retry_after(retry));
      bump(counters.backpressured);
      continue;
    }

    const bool accepted = status.state != service::JobState::kRejected;
    reply.type = FrameType::kSubmitAck;
    send_frame(conn, reply, encode_job_status(status));
    bump(accepted ? counters.submits_accepted : counters.submits_rejected);

    // A rejection or an unstreamed job stays until a poll reply carries
    // its terminal status.  A streamed job gets its route now; if it has
    // already finished, its status waits in the inbox, and
    // deliver_results() queues the kResult after this ack.
    const bool streamed = accepted && (item.flags & kFlagStreamResult) != 0;
    conn.requests[item.request_id] = Request{handle, streamed};
    if (streamed) routes_[handle.id()] = Route{item.fd, item.request_id};
  }
}

void WireServer::Edge::deliver_results() {
  for (const service::JobStatus& status : inbox->take()) {
    // No route: an unstreamed job, or its connection has closed.
    const auto route = routes_.find(status.id);
    if (route == routes_.end()) continue;
    Connection& conn = conns_.at(route->second.fd);
    FrameHeader header;
    header.type = FrameType::kResult;
    header.tenant_id = conn.tenant;
    header.request_id = route->second.request_id;
    send_frame(conn, header, encode_job_status(status));
    bump(counters.results_streamed);
    conn.requests.erase(route->second.request_id);
    routes_.erase(route);
  }
}

void WireServer::Edge::flush(Connection& conn) {
  while (!conn.outbox.empty()) {
    iovec iov[kMaxIov];
    std::size_t count = 0;
    std::size_t skip = conn.front_offset;
    for (const std::vector<std::uint8_t>& frame : conn.outbox) {
      if (count == kMaxIov) break;
      iov[count].iov_base =
          const_cast<std::uint8_t*>(frame.data() + skip);
      iov[count].iov_len = frame.size() - skip;
      skip = 0;
      ++count;
    }
    // sendmsg rather than writev for MSG_NOSIGNAL: a write to a peer that
    // already hung up fails with EPIPE (the connection dies below)
    // instead of raising SIGPIPE, which would kill the process.
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = count;
    const ssize_t written = ::sendmsg(conn.fd, &msg, MSG_NOSIGNAL);
    if (written < 0) {
      if (errno != EAGAIN && errno != EWOULDBLOCK) conn.dead = true;
      return;
    }
    bump(counters.flushes);
    bump(counters.bytes_sent, static_cast<std::uint64_t>(written));
    std::size_t remaining = static_cast<std::size_t>(written);
    while (remaining > 0 && !conn.outbox.empty()) {
      std::vector<std::uint8_t>& front = conn.outbox.front();
      const std::size_t front_left = front.size() - conn.front_offset;
      if (remaining >= front_left) {
        remaining -= front_left;
        conn.outbox.pop_front();
        conn.front_offset = 0;
      } else {
        conn.front_offset += remaining;
        remaining = 0;
      }
    }
  }
}

WireServer::Edge::ConnectionMap::iterator WireServer::Edge::close_connection(
    ConnectionMap::iterator it) {
  // Jobs the connection submitted keep running; the service owns them.
  // Their results have nowhere to go.
  for (const auto& [request_id, request] : it->second.requests) {
    if (request.streamed) routes_.erase(request.handle.id());
  }
  ::close(it->first);
  bump(counters.connections_closed);
  return conns_.erase(it);
}

void WireServer::Edge::run() {
  std::vector<pollfd> fds;
  while (!stopping) {
    fds.clear();
    fds.push_back({inbox->wake_fd(), POLLIN, 0});
    fds.push_back({listen_fd, POLLIN, 0});
    for (const auto& [fd, conn] : conns_) {
      short events = 0;
      if (!conn.closing && !conn.dead) events |= POLLIN;
      if (!conn.outbox.empty()) events |= POLLOUT;
      fds.push_back({fd, events, 0});
    }

    const int ready =
        ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 200);
    if (ready < 0 && errno != EINTR) break;

    if (fds[0].revents & POLLIN) inbox->drain_wakes();
    if (fds[1].revents & POLLIN) accept_ready();

    for (std::size_t i = 2; i < fds.size(); ++i) {
      Connection& conn = conns_.at(fds[i].fd);
      if (fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) conn.dead = true;
      if (!conn.dead && (fds[i].revents & POLLIN) && read_ready(conn)) {
        parse_frames(conn);
      }
    }

    // Fairness point: every submit read this cycle is sitting in the DRR
    // scheduler; drain it in deficit order so one tenant's burst cannot
    // starve another's frames that arrived in the same cycle.
    drain_ingress();

    // After every ack and cancel ack of this cycle, so a kResult never
    // precedes its request's kSubmitAck or kCancelAck.
    deliver_results();

    // Opportunistic flush of every pending outbox (not just POLLOUT
    // signalled ones): replies generated this cycle go out now, batched.
    for (auto it = conns_.begin(); it != conns_.end();) {
      Connection& conn = it->second;
      if (!conn.outbox.empty() && !conn.dead) flush(conn);
      if (conn.dead || (conn.closing && conn.outbox.empty())) {
        it = close_connection(it);
      } else {
        ++it;
      }
    }
  }

  while (!conns_.empty()) close_connection(conns_.begin());
  ::close(listen_fd);
  listen_fd = -1;
}

}  // namespace chainckpt::net
