// Thin blocking client for the wire protocol: one TCP connection, one
// tenant, synchronous request/reply with a stash for interleaved frames.
// A streamed kResult is never the reply to a poll, cancel or submit, even
// when it carries the same request id: it waits in the stash until
// wait_result() asks, and the reply is the next other frame for the id
// (kUnknownRequest for a poll sent after the kResult retired the id).
//
// This is deliberately the simplest correct client: blocking socket,
// no internal threads, not thread-safe.  It exists for the loopback
// test battery (tests/net/), the benches, and as reference code for
// writing a real client (tools/wire_smoke.py is the same logic in
// Python).  Protocol-level kError frames surface as WireClientError.
#pragma once

#include <cstdint>
#include <deque>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/frame.hpp"
#include "net/payload.hpp"
#include "service/solver_service.hpp"

namespace chainckpt::net {

/// A kError frame (or a transport failure) surfaced to the caller.
class WireClientError : public std::runtime_error {
 public:
  WireClientError(WireError code, const std::string& message)
      : std::runtime_error(message), code_(code) {}
  /// kNone for transport-level failures (EOF, short read).
  WireError code() const noexcept { return code_; }

 private:
  WireError code_;
};

/// One received frame, payload still raw.
struct ClientFrame {
  FrameHeader header;
  std::vector<std::uint8_t> payload;
};

/// Reply to submit(): exactly one of the three shapes.
struct SubmitOutcome {
  /// True when the server answered kRetryAfter (quota throttle or
  /// admission queue-full): the job was NOT enqueued; retry later.
  bool retry = false;
  RetryAfterPayload retry_info;
  /// Valid when !retry: the kSubmitAck snapshot (kQueued/kRunning when
  /// accepted; kRejected with reject_reason when refused outright).
  service::JobStatus status;
};

class WireClient {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    std::uint64_t tenant = 0;
    std::string client_name = "wire_client";
    std::uint32_t max_payload_bytes = kDefaultMaxPayloadBytes;
  };

  /// Connects (throws WireClientError on failure).  No frames are
  /// exchanged until hello()/submit().
  explicit WireClient(Options options);
  ~WireClient();

  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  /// kHello -> kWelcome handshake; binds the tenant server-side.
  WelcomePayload hello();

  /// Submits one job under `request_id` (client-chosen, unique per
  /// connection).  `stream` requests a kResult push on completion
  /// (collect it with wait_result()).
  SubmitOutcome submit(const service::JobRequest& request,
                       std::uint64_t request_id, bool stream = false);

  /// kPoll -> kStatus snapshot.
  service::JobStatus poll(std::uint64_t request_id);

  /// Blocks until the streamed kResult frame for `request_id` arrives
  /// (submit(..., stream = true) must have been used).
  service::JobStatus wait_result(std::uint64_t request_id);

  /// kCancel -> kCancelAck; true when the cancel reached a live job.
  bool cancel(std::uint64_t request_id);

  /// kStatsRequest -> kStatsReply JSON text.
  std::string stats_json();

  /// Orderly close (kGoodbye + shutdown).  Idempotent.
  void goodbye();

  // Low-level escape hatches (the conformance tests drive these).
  void send_frame(const FrameHeader& header,
                  const std::vector<std::uint8_t>& payload);
  void send_raw(const std::uint8_t* data, std::size_t size);
  ClientFrame read_frame();

 private:
  /// Returns the first stashed or newly read frame for `request_id` that
  /// is a kResult (`result`) or is not one (`!result`), stashing the
  /// frames read before it.
  ClientFrame take_frame(std::uint64_t request_id, bool result);
  /// take_frame(request_id, false); throws WireClientError when that
  /// frame is kError.
  ClientFrame await_reply(std::uint64_t request_id);
  FrameHeader make_header(FrameType type, std::uint64_t request_id,
                          std::uint16_t flags = 0) const;

  Options options_;
  int fd_ = -1;
  std::deque<ClientFrame> stash_;
};

}  // namespace chainckpt::net
