// Payload (de)serialization of protocol version 1 (net/frame.hpp holds
// the framing; this module fills the payload bytes).
//
// Bit-exactness contract: a JobRequest decoded from the wire reproduces
// every number the solver reads bit-for-bit -- chain weights, platform
// rates/costs, per-position cost streams (including the "empty stream ==
// mirror the checkpoint cost" recovery convention), and the planning law
// -- so a loopback solve is bitwise identical to the in-process solve of
// the original request (tests/net/wire_roundtrip_test.cpp).  Doubles
// travel as IEEE-754 bit patterns (core/result_io.hpp); the JSON text of
// kStatsReply uses the %.17g discipline of scenario/spec_io.hpp.
//
// Decoders are total over hostile bytes: they bounds-check every read,
// validate enum ranges and length consistency, and return false instead
// of throwing or over-allocating, so the fuzz battery can hurl mutated
// payloads at them under ASan+UBSan.  Task names are deliberately NOT
// serialized (they never influence a solve); the decoded chain carries
// the default "T<i>" labels.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/frame.hpp"
#include "service/solver_service.hpp"

namespace chainckpt::net {

// ------------------------------------------------------------- requests
/// kSubmit payload: algorithm + scheduling options + chain + cost model.
std::vector<std::uint8_t> encode_job_request(
    const service::JobRequest& request);
bool decode_job_request(const std::uint8_t* data, std::size_t size,
                        service::JobRequest& request);

// ------------------------------------------------------------- statuses
/// kSubmitAck / kStatus / kResult payload: a JobStatus snapshot; the
/// OptimizationResult rides along exactly when state == kSucceeded.
std::vector<std::uint8_t> encode_job_status(const service::JobStatus& status);
bool decode_job_status(const std::uint8_t* data, std::size_t size,
                       service::JobStatus& status);

// --------------------------------------------------------- backpressure
/// kRetryAfter payload.  Backpressure is advice, not failure: the job was
/// NOT enqueued; retry the identical submit after `retry_after_ms`.
/// `reason` distinguishes an admission queue-full verdict
/// (RejectReason::kQueueFull) from a tenant-quota throttle (kNone).
struct RetryAfterPayload {
  std::uint32_t retry_after_ms = 0;
  service::RejectReason reason = service::RejectReason::kNone;
  std::string message;
};
std::vector<std::uint8_t> encode_retry_after(const RetryAfterPayload& payload);
bool decode_retry_after(const std::uint8_t* data, std::size_t size,
                        RetryAfterPayload& payload);

// --------------------------------------------------------------- errors
struct ErrorPayload {
  WireError code = WireError::kNone;
  std::string message;
};
std::vector<std::uint8_t> encode_error(const ErrorPayload& payload);
bool decode_error(const std::uint8_t* data, std::size_t size,
                  ErrorPayload& payload);

// -------------------------------------------------------------- session
/// kWelcome payload: what the server speaks and will accept.
struct WelcomePayload {
  std::uint8_t version = kProtocolVersion;
  std::uint32_t max_payload_bytes = kDefaultMaxPayloadBytes;
  std::uint32_t max_n = 0;  ///< service max chain length
  std::string server;
};
std::vector<std::uint8_t> encode_welcome(const WelcomePayload& payload);
bool decode_welcome(const std::uint8_t* data, std::size_t size,
                    WelcomePayload& payload);

/// kHello payload: free-form client identification (may be empty).
std::vector<std::uint8_t> encode_hello(const std::string& client);
bool decode_hello(const std::uint8_t* data, std::size_t size,
                  std::string& client);

/// kCancelAck payload: did the cancel reach a non-terminal job?
std::vector<std::uint8_t> encode_cancel_ack(bool cancelled);
bool decode_cancel_ack(const std::uint8_t* data, std::size_t size,
                       bool& cancelled);

// ---------------------------------------------------------------- stats
/// ServiceStats (including the per-tenant counter map) as deterministic
/// JSON -- the kStatsReply payload.  Doubles print %.17g, tenants in
/// ascending id order.
std::string service_stats_to_json(const service::ServiceStats& stats);

}  // namespace chainckpt::net
