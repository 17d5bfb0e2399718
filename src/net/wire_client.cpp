#include "net/wire_client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace chainckpt::net {

namespace {

void read_exact(int fd, std::uint8_t* out, std::size_t size) {
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(fd, out + got, size - got, 0);
    if (n > 0) {
      got += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    throw WireClientError(WireError::kNone,
                          n == 0 ? "connection closed by server"
                                 : "recv failed: " +
                                       std::string(std::strerror(errno)));
  }
}

}  // namespace

WireClient::WireClient(Options options) : options_(std::move(options)) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    throw WireClientError(WireError::kNone, "socket() failed");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd_);
    fd_ = -1;
    throw WireClientError(WireError::kNone,
                          "bad host address " + options_.host);
  }
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    ::close(fd_);
    fd_ = -1;
    throw WireClientError(WireError::kNone,
                          "connect to " + options_.host + ":" +
                              std::to_string(options_.port) + " failed: " +
                              std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

WireClient::~WireClient() {
  if (fd_ >= 0) ::close(fd_);
}

FrameHeader WireClient::make_header(FrameType type, std::uint64_t request_id,
                                    std::uint16_t flags) const {
  FrameHeader header;
  header.type = type;
  header.flags = flags;
  header.tenant_id = options_.tenant;
  header.request_id = request_id;
  return header;
}

void WireClient::send_raw(const std::uint8_t* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd_, data + sent, size - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    throw WireClientError(
        WireError::kNone,
        "send failed: " + std::string(std::strerror(errno)));
  }
}

void WireClient::send_frame(const FrameHeader& header,
                            const std::vector<std::uint8_t>& payload) {
  const std::vector<std::uint8_t> frame = encode_frame(header, payload);
  send_raw(frame.data(), frame.size());
}

ClientFrame WireClient::read_frame() {
  ClientFrame frame;
  std::uint8_t header_bytes[kHeaderBytes];
  read_exact(fd_, header_bytes, kHeaderBytes);
  const DecodeStatus status =
      decode_header(header_bytes, kHeaderBytes, frame.header,
                    options_.max_payload_bytes);
  if (status != DecodeStatus::kOk) {
    throw WireClientError(to_wire_error(status),
                          "undecodable frame header from server");
  }
  frame.payload.resize(frame.header.payload_size);
  if (frame.header.payload_size > 0) {
    read_exact(fd_, frame.payload.data(), frame.payload.size());
  }
  return frame;
}

ClientFrame WireClient::take_frame(std::uint64_t request_id, bool result) {
  const auto wanted = [&](const ClientFrame& frame) {
    return frame.header.request_id == request_id &&
           (frame.header.type == FrameType::kResult) == result;
  };
  const auto stashed = std::find_if(stash_.begin(), stash_.end(), wanted);
  if (stashed != stash_.end()) {
    ClientFrame frame = std::move(*stashed);
    stash_.erase(stashed);
    return frame;
  }
  for (;;) {
    ClientFrame frame = read_frame();
    if (wanted(frame)) return frame;
    stash_.push_back(std::move(frame));
  }
}

ClientFrame WireClient::await_reply(std::uint64_t request_id) {
  ClientFrame frame = take_frame(request_id, /*result=*/false);
  if (frame.header.type == FrameType::kError) {
    ErrorPayload error;
    decode_error(frame.payload.data(), frame.payload.size(), error);
    throw WireClientError(error.code, error.message);
  }
  return frame;
}

WelcomePayload WireClient::hello() {
  send_frame(make_header(FrameType::kHello, 0),
             encode_hello(options_.client_name));
  const ClientFrame frame = await_reply(0);
  WelcomePayload welcome;
  if (frame.header.type != FrameType::kWelcome ||
      !decode_welcome(frame.payload.data(), frame.payload.size(), welcome)) {
    throw WireClientError(WireError::kBadPayload,
                          "expected a kWelcome reply to hello");
  }
  return welcome;
}

SubmitOutcome WireClient::submit(const service::JobRequest& request,
                                 std::uint64_t request_id, bool stream) {
  send_frame(make_header(FrameType::kSubmit, request_id,
                         stream ? kFlagStreamResult : 0),
             encode_job_request(request));
  const ClientFrame frame = await_reply(request_id);
  SubmitOutcome outcome;
  if (frame.header.type == FrameType::kRetryAfter) {
    outcome.retry = true;
    if (!decode_retry_after(frame.payload.data(), frame.payload.size(),
                            outcome.retry_info)) {
      throw WireClientError(WireError::kBadPayload,
                            "malformed kRetryAfter payload");
    }
    return outcome;
  }
  if (frame.header.type != FrameType::kSubmitAck ||
      !decode_job_status(frame.payload.data(), frame.payload.size(),
                         outcome.status)) {
    throw WireClientError(WireError::kBadPayload,
                          "expected a kSubmitAck reply to submit");
  }
  return outcome;
}

service::JobStatus WireClient::poll(std::uint64_t request_id) {
  send_frame(make_header(FrameType::kPoll, request_id), {});
  const ClientFrame frame = await_reply(request_id);
  service::JobStatus status;
  if (frame.header.type != FrameType::kStatus ||
      !decode_job_status(frame.payload.data(), frame.payload.size(),
                         status)) {
    throw WireClientError(WireError::kBadPayload,
                          "expected a kStatus reply to poll");
  }
  return status;
}

service::JobStatus WireClient::wait_result(std::uint64_t request_id) {
  const ClientFrame frame = take_frame(request_id, /*result=*/true);
  service::JobStatus status;
  if (!decode_job_status(frame.payload.data(), frame.payload.size(),
                         status)) {
    throw WireClientError(WireError::kBadPayload,
                          "malformed kResult payload");
  }
  return status;
}

bool WireClient::cancel(std::uint64_t request_id) {
  send_frame(make_header(FrameType::kCancel, request_id), {});
  const ClientFrame frame = await_reply(request_id);
  bool cancelled = false;
  if (frame.header.type != FrameType::kCancelAck ||
      !decode_cancel_ack(frame.payload.data(), frame.payload.size(),
                         cancelled)) {
    throw WireClientError(WireError::kBadPayload,
                          "expected a kCancelAck reply to cancel");
  }
  return cancelled;
}

std::string WireClient::stats_json() {
  send_frame(make_header(FrameType::kStatsRequest, 0), {});
  const ClientFrame frame = await_reply(0);
  if (frame.header.type != FrameType::kStatsReply) {
    throw WireClientError(WireError::kBadPayload,
                          "expected a kStatsReply reply");
  }
  return std::string(frame.payload.begin(), frame.payload.end());
}

void WireClient::goodbye() {
  if (fd_ < 0) return;
  try {
    send_frame(make_header(FrameType::kGoodbye, 0), {});
  } catch (const WireClientError&) {
    // Closing anyway.
  }
  ::shutdown(fd_, SHUT_WR);
  ::close(fd_);
  fd_ = -1;
}

}  // namespace chainckpt::net
