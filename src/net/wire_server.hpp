// Network edge of the solver service: a poll(2)-based TCP server that
// maps protocol-version-1 frames (net/frame.hpp, net/payload.hpp) onto
// service::SolverService submit/poll/cancel, with per-tenant token-bucket
// quotas, deficit-round-robin ingress fairness (net/tenant.hpp), and
// result streaming.
//
// Threading model: ONE I/O thread owns the edge -- every socket,
// connection, outbox, live request and result route; it accepts, reads,
// parses, dispatches and writes.  Solves happen on the service's worker
// pool, and the completion callback does one thing: it appends the
// finished JobStatus to a mutex-guarded inbox and writes a wake byte to a
// self-pipe.  Once per loop cycle, after the frames and the DRR ingress
// are handled and before the flush, the I/O thread takes the inbox and
// queues each streamed job's kResult on its connection, retiring the
// request in the same step.  A streamed job's route is made right after
// submit() returns, on the same thread, so a job that finishes before
// its ack simply waits in the inbox: with one consumer, every streamed
// job gets exactly one kResult, after its kSubmitAck and after any
// kCancelAck for it.  The inbox lock is held only to append or to swap
// the list out; submit's rejection and a queued job's cancel run the
// callback on the I/O thread itself, which only appends.
//
// Request retirement (docs/PROTOCOL.md): a request leaves the edge once
// the frame carrying its terminal status is queued -- the streamed
// kResult, or else a kStatus poll reply -- so an endless connection holds
// only its unfinished requests.  Later polls and cancels of the id answer
// kUnknownRequest, and the client may reuse it.
//
// Write aggregation: replies are queued per connection and flushed with
// one gathering sendmsg, many frames per syscall.  WireServerStats counts frames_sent
// and flushes separately so the batching is observable (a burst of polls
// yields frames_sent >> flushes).
//
// Backpressure (docs/PROTOCOL.md): a quota throttle and an admission
// queue-full verdict both become kRetryAfter frames -- the job was NOT
// enqueued, and a queue-full verdict refunds the quota charge.  All
// other rejections return a kSubmitAck whose JobStatus carries the
// RejectReason, so clients can distinguish "slow down" from "this
// request is wrong".
//
// Tenant identity: the first frame on a connection binds its tenant id;
// every later frame must carry the same id (kTenantMismatch otherwise).
// The server overwrites SubmitOptions::tenant with this bound id -- the
// edge, not the payload, owns identity -- which is what makes the
// per-tenant counters in ServiceStats trustworthy.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "net/frame.hpp"
#include "net/tenant.hpp"
#include "service/solver_service.hpp"

namespace chainckpt::net {

struct WireServerOptions {
  /// Listen address (tests and the CI smoke lane stay on loopback).
  std::string bind_address = "127.0.0.1";
  /// 0 binds an ephemeral port; port() reports the actual one.
  std::uint16_t port = 0;
  int listen_backlog = 64;
  /// Ceiling on declared payload lengths; larger declarations are
  /// rejected before any allocation.
  std::uint32_t max_payload_bytes = kDefaultMaxPayloadBytes;
  /// Retry hint attached to admission queue-full backpressure.
  std::uint32_t queue_full_retry_ms = 50;
  /// Quota for tenants without an explicit entry (default: unlimited).
  TenantQuota default_quota;
  std::map<std::uint64_t, TenantQuota> tenant_quotas;
  std::string server_name = "chainckpt-wire/1";
};

/// Edge-side counters, all monotonic.  The I/O thread bumps them as
/// relaxed atomics, so stats() is safe from any thread and touches no
/// connection state; each field is exact when read, but one stats() call
/// racing the I/O thread is not a snapshot across fields (a kSubmitAck
/// counts in frames_sent just before it counts in submits_accepted).
struct WireServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_closed = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t frames_sent = 0;
  /// sendmsg calls; frames_sent / flushes is the aggregation factor.
  std::uint64_t flushes = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t submits_accepted = 0;
  /// kRetryAfter frames from tenant-quota throttles.
  std::uint64_t throttled = 0;
  /// kRetryAfter frames from admission queue-full verdicts.
  std::uint64_t backpressured = 0;
  /// Non-retryable kSubmitAck rejections (bad chain, per-job cap, ...).
  std::uint64_t submits_rejected = 0;
  /// kResult frames queued: one per streamed job that finished while its
  /// connection was open.
  std::uint64_t results_streamed = 0;
  /// kError frames sent (bad magic/version/type/payload, unknown ids...).
  std::uint64_t protocol_errors = 0;
};

class WireServer {
 public:
  /// The service must outlive the server.  The server installs itself as
  /// the service's completion callback in start().
  explicit WireServer(service::SolverService& service,
                      WireServerOptions options = {});
  ~WireServer();

  WireServer(const WireServer&) = delete;
  WireServer& operator=(const WireServer&) = delete;

  /// Binds, listens, and spawns the I/O thread.  Throws std::runtime_error
  /// when the socket cannot be bound.
  void start();

  /// Closes the listener and every connection, then joins the I/O
  /// thread.  Idempotent; the destructor calls it.
  void stop();

  /// Actual bound port (after start(); useful with port = 0).
  std::uint16_t port() const noexcept;

  WireServerStats stats() const;
  /// Per-tenant edge verdicts (quota admits/throttles/refunds).
  std::map<std::uint64_t, TenantEdgeStats> tenant_stats() const;

 private:
  /// The I/O thread's state (wire_server.cpp).
  class Edge;

  service::SolverService& service_;
  WireServerOptions options_;
  std::unique_ptr<Edge> edge_;
  std::thread io_thread_;
  bool started_ = false;
};

}  // namespace chainckpt::net
