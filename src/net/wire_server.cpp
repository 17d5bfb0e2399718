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
#include <cerrno>
#include <chrono>
#include <cstring>
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

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// A live request of one connection.
struct Request {
  service::JobHandle handle;
  /// Its terminal status goes out as a streamed kResult, not in a poll
  /// reply.
  bool streamed = false;
};

/// A streamed request whose kResult the completion callback queued.  The
/// job id tells it apart from a later request that reuses the id.
struct Finished {
  std::uint64_t request_id = 0;
  service::JobId job = 0;
};

struct Connection {
  int fd = -1;
  bool tenant_bound = false;
  std::uint64_t tenant = 0;
  /// Read buffer; [parse_offset, size) is the unparsed suffix.
  std::vector<std::uint8_t> inbuf;
  std::size_t parse_offset = 0;
  /// Pending reply frames (State::mutex); front_offset is how much of the
  /// front frame a partial send already pushed out.
  std::deque<std::vector<std::uint8_t>> outbox;
  std::size_t front_offset = 0;
  /// Flush what is queued, then close (kGoodbye or an unsyncable stream).
  bool closing = false;
  bool dead = false;  ///< socket error/EOF: close without flushing
  /// Live requests of this connection by request id (I/O thread only).
  /// A request leaves once the frame carrying its terminal status is
  /// queued: its streamed kResult, or else a kStatus poll reply.
  std::map<std::uint64_t, Request> requests;
  /// Streamed requests the completion callback finished (State::mutex);
  /// the I/O thread retires them from `requests` before it reads the
  /// connection's next frames.
  std::vector<Finished> finished;
};

/// Where a finished job's kResult frame goes.  Whoever queues the kResult
/// -- the completion callback (worker thread) or the post-submit handoff
/// (I/O thread) -- erases the route under State::mutex, which makes the
/// result exactly-once.
struct Route {
  int fd = -1;
  std::uint64_t request_id = 0;
  std::uint64_t tenant = 0;
};

/// One quota-pending submission sitting in the DRR ingress.
struct Ingress {
  int fd = -1;
  std::uint64_t request_id = 0;
  std::uint16_t flags = 0;
  double units = 0.0;
  service::JobRequest request;
};

}  // namespace

struct WireServer::State {
  explicit State(const WireServerOptions& options)
      : governor(options.default_quota) {
    for (const auto& [tenant, quota] : options.tenant_quotas) {
      governor.set_quota(tenant, quota);
    }
  }

  ~State() {
    if (listen_fd >= 0) ::close(listen_fd);
    if (wake_read >= 0) ::close(wake_read);
    if (wake_write >= 0) ::close(wake_write);
  }

  void wake() {
    const char byte = 1;
    // Best-effort: a full pipe already guarantees a pending wakeup.
    [[maybe_unused]] const ssize_t n = ::write(wake_write, &byte, 1);
  }

  /// Queues one frame on a connection's outbox.  Requires mutex.
  void append_frame_locked(Connection& conn, FrameHeader header,
                           const std::vector<std::uint8_t>& payload) {
    conn.outbox.push_back(encode_frame(header, payload));
    ++stats.frames_sent;
  }

  mutable std::mutex mutex;
  bool stopping = false;
  int listen_fd = -1;
  int wake_read = -1;
  int wake_write = -1;
  std::uint16_t port = 0;
  std::map<int, std::shared_ptr<Connection>> conns;
  std::map<service::JobId, Route> routes;
  WireServerStats stats;
  TenantGovernor governor;
};

WireServer::WireServer(service::SolverService& service,
                       WireServerOptions options)
    : service_(service),
      options_(std::move(options)),
      state_(std::make_shared<State>(options_)) {}

WireServer::~WireServer() { stop(); }

void WireServer::start() {
  if (started_) return;

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

  int pipe_fds[2];
  if (::pipe(pipe_fds) < 0) {
    ::close(fd);
    throw std::runtime_error("wire server: pipe() failed");
  }
  set_nonblocking(pipe_fds[0]);
  set_nonblocking(pipe_fds[1]);

  {
    std::lock_guard<std::mutex> lock(state_->mutex);
    state_->listen_fd = fd;
    state_->wake_read = pipe_fds[0];
    state_->wake_write = pipe_fds[1];
    state_->port = ntohs(bound.sin_port);
    state_->stopping = false;
  }

  // The callback holds its own reference to the state: a result landing
  // while stop() tears connections down still finds a coherent (if
  // empty) routing table instead of a dangling pointer.
  std::shared_ptr<State> st = state_;
  service_.on_completion([st](const service::JobStatus& status) {
    std::lock_guard<std::mutex> lock(st->mutex);
    const auto route_it = st->routes.find(status.id);
    if (route_it == st->routes.end()) return;
    const Route route = route_it->second;
    st->routes.erase(route_it);
    const auto conn_it = st->conns.find(route.fd);
    if (conn_it == st->conns.end()) return;
    FrameHeader header;
    header.type = FrameType::kResult;
    header.tenant_id = route.tenant;
    header.request_id = route.request_id;
    Connection& conn = *conn_it->second;
    st->append_frame_locked(conn, header, encode_job_status(status));
    conn.finished.push_back({route.request_id, status.id});
    ++st->stats.results_streamed;
    st->wake();
  });

  io_thread_ = std::thread([this] { io_loop(); });
  started_ = true;
}

void WireServer::stop() {
  if (!started_) return;
  {
    std::lock_guard<std::mutex> lock(state_->mutex);
    state_->stopping = true;
  }
  state_->wake();
  if (io_thread_.joinable()) io_thread_.join();
  service_.on_completion({});
  started_ = false;
}

std::uint16_t WireServer::port() const noexcept { return state_->port; }

WireServerStats WireServer::stats() const {
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->stats;
}

std::map<std::uint64_t, TenantEdgeStats> WireServer::tenant_stats() const {
  return state_->governor.stats();
}

namespace {

/// Everything the io_loop needs per iteration but must not keep across
/// iterations lives here (plain function-local style keeps the loop
/// readable without a second class).
class IoDriver {
 public:
  IoDriver(WireServer::State& state, service::SolverService& service,
           const WireServerOptions& options)
      : st_(state), service_(service), options_(options),
        ingress_(options.drr_quantum_units) {}

  void run();

 private:
  using StatePtr = WireServer::State;

  void accept_ready();
  bool read_ready(const std::shared_ptr<Connection>& conn);
  void parse_frames(const std::shared_ptr<Connection>& conn);
  void handle_frame(const std::shared_ptr<Connection>& conn,
                    const FrameHeader& header, const std::uint8_t* payload,
                    std::size_t payload_size);
  void drain_ingress();
  /// Returns false when the socket died mid-flush.
  bool flush(const std::shared_ptr<Connection>& conn);
  void close_connection(int fd);
  void send_error(const std::shared_ptr<Connection>& conn,
                  std::uint64_t tenant, std::uint64_t request_id,
                  WireError code, const std::string& message);
  void send_frame(const std::shared_ptr<Connection>& conn,
                  FrameHeader header,
                  const std::vector<std::uint8_t>& payload);

  WireServer::State& st_;
  service::SolverService& service_;
  const WireServerOptions& options_;
  DrrScheduler<Ingress> ingress_;
};

void IoDriver::send_frame(const std::shared_ptr<Connection>& conn,
                          FrameHeader header,
                          const std::vector<std::uint8_t>& payload) {
  std::lock_guard<std::mutex> lock(st_.mutex);
  st_.append_frame_locked(*conn, header, payload);
}

void IoDriver::send_error(const std::shared_ptr<Connection>& conn,
                          std::uint64_t tenant, std::uint64_t request_id,
                          WireError code, const std::string& message) {
  FrameHeader header;
  header.type = FrameType::kError;
  header.tenant_id = tenant;
  header.request_id = request_id;
  ErrorPayload payload{code, message};
  {
    std::lock_guard<std::mutex> lock(st_.mutex);
    st_.append_frame_locked(*conn, header, encode_error(payload));
    ++st_.stats.protocol_errors;
  }
}

void IoDriver::accept_ready() {
  for (;;) {
    const int fd = ::accept(st_.listen_fd, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient error: next poll round
    set_nonblocking(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    std::lock_guard<std::mutex> lock(st_.mutex);
    st_.conns[fd] = std::move(conn);
    ++st_.stats.connections_accepted;
  }
}

bool IoDriver::read_ready(const std::shared_ptr<Connection>& conn) {
  std::uint8_t buffer[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(conn->fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      conn->inbuf.insert(conn->inbuf.end(), buffer, buffer + n);
      std::lock_guard<std::mutex> lock(st_.mutex);
      st_.stats.bytes_received += static_cast<std::uint64_t>(n);
      if (static_cast<std::size_t>(n) < sizeof(buffer)) return true;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    // 0 = orderly EOF, otherwise a hard error: either way the peer is
    // gone (a mid-frame disconnect lands here; any half-parsed frame is
    // simply dropped with the connection).
    conn->dead = true;
    return false;
  }
}

void IoDriver::parse_frames(const std::shared_ptr<Connection>& conn) {
  for (;;) {
    if (conn->closing || conn->dead) break;
    const std::uint8_t* data = conn->inbuf.data() + conn->parse_offset;
    const std::size_t avail = conn->inbuf.size() - conn->parse_offset;
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
      conn->closing = true;
      break;
    }
    if (avail < kHeaderBytes + header.payload_size) break;
    {
      std::lock_guard<std::mutex> lock(st_.mutex);
      ++st_.stats.frames_received;
    }
    handle_frame(conn, header, data + kHeaderBytes, header.payload_size);
    conn->parse_offset += kHeaderBytes + header.payload_size;
  }
  if (conn->parse_offset == conn->inbuf.size()) {
    conn->inbuf.clear();
    conn->parse_offset = 0;
  } else if (conn->parse_offset > (1u << 20)) {
    conn->inbuf.erase(conn->inbuf.begin(),
                      conn->inbuf.begin() +
                          static_cast<std::ptrdiff_t>(conn->parse_offset));
    conn->parse_offset = 0;
  }
}

void IoDriver::handle_frame(const std::shared_ptr<Connection>& conn,
                            const FrameHeader& header,
                            const std::uint8_t* payload,
                            std::size_t payload_size) {
  if (!conn->tenant_bound) {
    conn->tenant_bound = true;
    conn->tenant = header.tenant_id;
  } else if (header.tenant_id != conn->tenant) {
    send_error(conn, conn->tenant, header.request_id,
               WireError::kTenantMismatch, to_string(WireError::kTenantMismatch));
    return;
  }

  FrameHeader reply;
  reply.tenant_id = conn->tenant;
  reply.request_id = header.request_id;

  switch (header.type) {
    case FrameType::kHello: {
      std::string client;
      if (!decode_hello(payload, payload_size, client)) {
        send_error(conn, conn->tenant, header.request_id,
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
      if (conn->requests.count(header.request_id) != 0) {
        send_error(conn, conn->tenant, header.request_id,
                   WireError::kDuplicateRequest,
                   to_string(WireError::kDuplicateRequest));
        return;
      }
      Ingress item;
      if (!decode_job_request(payload, payload_size, item.request)) {
        send_error(conn, conn->tenant, header.request_id,
                   WireError::kBadPayload, "malformed job request");
        return;
      }
      item.fd = conn->fd;
      item.request_id = header.request_id;
      item.flags = header.flags;
      // The edge, not the payload, owns identity.
      item.request.options.tenant = conn->tenant;
      item.units = service::price_units(item.request.work.algorithm,
                                        item.request.work.chain.size());
      ingress_.push(conn->tenant, item.units, std::move(item));
      return;
    }
    case FrameType::kPoll: {
      const auto it = conn->requests.find(header.request_id);
      if (it == conn->requests.end()) {
        send_error(conn, conn->tenant, header.request_id,
                   WireError::kUnknownRequest,
                   to_string(WireError::kUnknownRequest));
        return;
      }
      const service::JobStatus status = service_.poll(it->second.handle);
      reply.type = FrameType::kStatus;
      send_frame(conn, reply, encode_job_status(status));
      // This reply carries the terminal status unless a kResult will.
      if (!it->second.streamed && service::is_terminal(status.state)) {
        conn->requests.erase(it);
      }
      return;
    }
    case FrameType::kCancel: {
      const auto it = conn->requests.find(header.request_id);
      if (it == conn->requests.end()) {
        send_error(conn, conn->tenant, header.request_id,
                   WireError::kUnknownRequest,
                   to_string(WireError::kUnknownRequest));
        return;
      }
      // Unlocked on purpose: cancelling a queued job fires the
      // completion callback synchronously on this thread.
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
      conn->closing = true;
      return;
    case FrameType::kWelcome:
    case FrameType::kSubmitAck:
    case FrameType::kStatus:
    case FrameType::kCancelAck:
    case FrameType::kResult:
    case FrameType::kRetryAfter:
    case FrameType::kError:
    case FrameType::kStatsReply:
      send_error(conn, conn->tenant, header.request_id, WireError::kBadType,
                 "server-to-client frame type received from client");
      return;
  }
}

void IoDriver::drain_ingress() {
  while (!ingress_.empty()) {
    auto [tenant, item] = ingress_.pop();
    std::shared_ptr<Connection> conn;
    {
      std::lock_guard<std::mutex> lock(st_.mutex);
      const auto it = st_.conns.find(item.fd);
      if (it != st_.conns.end()) conn = it->second;
    }
    // Connection gone before its submit was serviced: drop the job --
    // nothing was charged or enqueued yet.
    if (!conn || conn->dead) continue;

    FrameHeader reply;
    reply.tenant_id = tenant;
    reply.request_id = item.request_id;

    // Second duplicate screen: two submits reusing one id in the same
    // poll cycle both pass the frame-time check (neither was registered
    // yet), so the ingress drain re-checks before submitting.
    if (conn->requests.count(item.request_id) != 0) {
      std::lock_guard<std::mutex> lock(st_.mutex);
      ErrorPayload error{WireError::kDuplicateRequest,
                         to_string(WireError::kDuplicateRequest)};
      reply.type = FrameType::kError;
      st_.append_frame_locked(*conn, reply, encode_error(error));
      ++st_.stats.protocol_errors;
      continue;
    }

    const ThrottleDecision decision =
        st_.governor.try_charge(tenant, item.units, now_seconds());
    if (!decision.admitted) {
      RetryAfterPayload retry;
      retry.retry_after_ms = decision.retry_after_ms;
      retry.reason = service::RejectReason::kNone;
      retry.message = "tenant quota exhausted";
      reply.type = FrameType::kRetryAfter;
      {
        std::lock_guard<std::mutex> lock(st_.mutex);
        st_.append_frame_locked(*conn, reply, encode_retry_after(retry));
        ++st_.stats.throttled;
      }
      continue;
    }

    // Unlocked: a rejected submit invokes the completion callback
    // synchronously on this thread, and the callback takes the mutex.
    service::JobHandle handle = service_.submit(std::move(item.request));
    service::JobStatus status = service_.poll(handle);

    if (status.state == service::JobState::kRejected &&
        status.reject_reason == service::RejectReason::kQueueFull) {
      // Queue-full is backpressure, not failure: refund the quota charge
      // and tell the client when to retry the identical submit.
      st_.governor.refund(tenant, item.units);
      RetryAfterPayload retry;
      retry.retry_after_ms = options_.queue_full_retry_ms;
      retry.reason = service::RejectReason::kQueueFull;
      retry.message = "admission queue full";
      reply.type = FrameType::kRetryAfter;
      std::lock_guard<std::mutex> lock(st_.mutex);
      st_.append_frame_locked(*conn, reply, encode_retry_after(retry));
      ++st_.stats.backpressured;
      continue;
    }

    const bool accepted = status.state != service::JobState::kRejected;
    const bool wants_stream =
        accepted && (item.flags & kFlagStreamResult) != 0;
    // A rejection or an unstreamed job stays until a poll reply carries
    // its terminal status.
    if (!wants_stream) conn->requests[item.request_id] = Request{handle};

    // Protocol guarantee: the kSubmitAck always precedes the streamed
    // kResult.  The route is therefore registered only AFTER the ack is
    // queued -- the completion callback cannot stream into an outbox
    // that does not yet carry the ack.
    reply.type = FrameType::kSubmitAck;
    {
      std::lock_guard<std::mutex> lock(st_.mutex);
      st_.append_frame_locked(*conn, reply, encode_job_status(status));
      if (accepted) {
        ++st_.stats.submits_accepted;
      } else {
        ++st_.stats.submits_rejected;
      }
    }

    if (wants_stream) {
      FrameHeader result_header;
      result_header.type = FrameType::kResult;
      result_header.tenant_id = tenant;
      result_header.request_id = item.request_id;
      if (service::is_terminal(status.state)) {
        // Finished before the ack: the callback ran with no route, so
        // stream directly -- every accepted streamed submit gets exactly
        // one kResult -- and never register the request.
        std::lock_guard<std::mutex> lock(st_.mutex);
        st_.append_frame_locked(*conn, result_header,
                                encode_job_status(status));
        ++st_.stats.results_streamed;
      } else {
        conn->requests[item.request_id] = Request{handle, true};
        {
          std::lock_guard<std::mutex> lock(st_.mutex);
          st_.routes[handle.id()] = Route{item.fd, item.request_id, tenant};
        }
        // The job may have finished between submit() and the route
        // registration, in which case the completion callback found no
        // route and sent nothing.  Re-poll and serve the route here;
        // erasing the route makes the two paths exactly-once.
        status = service_.poll(handle);
        if (service::is_terminal(status.state)) {
          std::lock_guard<std::mutex> lock(st_.mutex);
          const auto route_it = st_.routes.find(handle.id());
          if (route_it != st_.routes.end()) {
            st_.routes.erase(route_it);
            st_.append_frame_locked(*conn, result_header,
                                    encode_job_status(status));
            ++st_.stats.results_streamed;
            conn->requests.erase(item.request_id);
          }
        }
      }
    }
  }
}

bool IoDriver::flush(const std::shared_ptr<Connection>& conn) {
  std::lock_guard<std::mutex> lock(st_.mutex);
  while (!conn->outbox.empty()) {
    iovec iov[kMaxIov];
    std::size_t count = 0;
    std::size_t skip = conn->front_offset;
    for (const std::vector<std::uint8_t>& frame : conn->outbox) {
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
    const ssize_t written = ::sendmsg(conn->fd, &msg, MSG_NOSIGNAL);
    if (written < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      conn->dead = true;
      return false;
    }
    ++st_.stats.flushes;
    st_.stats.bytes_sent += static_cast<std::uint64_t>(written);
    std::size_t remaining = static_cast<std::size_t>(written);
    while (remaining > 0 && !conn->outbox.empty()) {
      std::vector<std::uint8_t>& front = conn->outbox.front();
      const std::size_t front_left = front.size() - conn->front_offset;
      if (remaining >= front_left) {
        remaining -= front_left;
        conn->outbox.pop_front();
        conn->front_offset = 0;
      } else {
        conn->front_offset += remaining;
        remaining = 0;
      }
    }
  }
  return true;
}

void IoDriver::close_connection(int fd) {
  std::shared_ptr<Connection> conn;
  {
    std::lock_guard<std::mutex> lock(st_.mutex);
    const auto it = st_.conns.find(fd);
    if (it == st_.conns.end()) return;
    conn = it->second;
    st_.conns.erase(it);
    for (auto route_it = st_.routes.begin(); route_it != st_.routes.end();) {
      if (route_it->second.fd == fd) {
        route_it = st_.routes.erase(route_it);
      } else {
        ++route_it;
      }
    }
    ++st_.stats.connections_closed;
  }
  ::close(fd);
  // Jobs the connection submitted keep running; the service owns them.
}

void IoDriver::run() {
  std::vector<pollfd> fds;
  std::vector<int> conn_fds;
  for (;;) {
    fds.clear();
    conn_fds.clear();
    {
      std::lock_guard<std::mutex> lock(st_.mutex);
      if (st_.stopping) break;
      fds.push_back({st_.wake_read, POLLIN, 0});
      fds.push_back({st_.listen_fd, POLLIN, 0});
      for (const auto& [fd, conn] : st_.conns) {
        short events = 0;
        if (!conn->closing && !conn->dead) events |= POLLIN;
        if (!conn->outbox.empty()) events |= POLLOUT;
        fds.push_back({fd, events, 0});
        conn_fds.push_back(fd);
      }
    }

    const int ready =
        ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 200);
    if (ready < 0 && errno != EINTR) break;

    if (fds[0].revents & POLLIN) {
      std::uint8_t drain[256];
      while (::read(st_.wake_read, drain, sizeof(drain)) > 0) {
      }
    }
    if (fds[1].revents & POLLIN) accept_ready();

    for (std::size_t i = 0; i < conn_fds.size(); ++i) {
      const pollfd& pfd = fds[i + 2];
      std::shared_ptr<Connection> conn;
      std::vector<Finished> finished;
      {
        std::lock_guard<std::mutex> lock(st_.mutex);
        const auto it = st_.conns.find(conn_fds[i]);
        if (it == st_.conns.end()) continue;
        conn = it->second;
        finished.swap(conn->finished);
      }
      // Retire streamed requests whose kResult is queued before reading
      // frames that may reuse their ids: the kResult is flushed after
      // the callback recorded the request, so a client can only reuse
      // the id in a frame this step has not read yet.
      for (const Finished& done : finished) {
        const auto it = conn->requests.find(done.request_id);
        if (it != conn->requests.end() && it->second.handle.id() == done.job) {
          conn->requests.erase(it);
        }
      }
      if (pfd.revents & (POLLERR | POLLHUP | POLLNVAL)) conn->dead = true;
      if (!conn->dead && (pfd.revents & POLLIN)) {
        if (read_ready(conn)) parse_frames(conn);
      }
    }

    // Fairness point: every submit read this cycle is sitting in the DRR
    // scheduler; drain it in deficit order so one tenant's burst cannot
    // starve another's frames that arrived in the same cycle.
    drain_ingress();

    // Opportunistic flush of every pending outbox (not just POLLOUT
    // signalled ones): replies generated this cycle go out now, batched.
    std::vector<int> to_close;
    conn_fds.clear();
    {
      std::lock_guard<std::mutex> lock(st_.mutex);
      for (const auto& [fd, conn] : st_.conns) conn_fds.push_back(fd);
    }
    for (const int fd : conn_fds) {
      std::shared_ptr<Connection> conn;
      {
        std::lock_guard<std::mutex> lock(st_.mutex);
        const auto it = st_.conns.find(fd);
        if (it == st_.conns.end()) continue;
        conn = it->second;
      }
      bool pending = false;
      {
        std::lock_guard<std::mutex> lock(st_.mutex);
        pending = !conn->outbox.empty();
      }
      if (pending && !conn->dead) flush(conn);
      bool empty_out = false;
      {
        std::lock_guard<std::mutex> lock(st_.mutex);
        empty_out = conn->outbox.empty();
      }
      if (conn->dead || (conn->closing && empty_out)) to_close.push_back(fd);
    }
    for (const int fd : to_close) close_connection(fd);
  }

  // Teardown: close every connection (the listener and pipe close with
  // the State).
  std::vector<int> remaining;
  {
    std::lock_guard<std::mutex> lock(st_.mutex);
    for (const auto& [fd, conn] : st_.conns) remaining.push_back(fd);
  }
  for (const int fd : remaining) close_connection(fd);
}

}  // namespace

void WireServer::io_loop() {
  IoDriver driver(*state_, service_, options_);
  driver.run();
}

}  // namespace chainckpt::net
