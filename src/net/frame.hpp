// Length-prefixed binary wire protocol: the frame layer.
//
// Every message on a chainckpt connection is one frame:
//
//     offset  size  field
//          0     4  magic       "CKPT" (0x43 0x4B 0x50 0x54)
//          4     1  version     kProtocolVersion (1)
//          5     1  type        FrameType
//          6     2  flags       u16 LE (bit 0: kFlagStreamResult)
//          8     8  tenant_id   u64 LE (accounting identity of the frame)
//         16     8  request_id  u64 LE (client-chosen; echoed in replies)
//         24     4  payload_len u32 LE
//         28     -  payload     payload_len bytes (see net/payload.hpp)
//
// The header is fixed-size (kHeaderBytes = 28) so a reader can always
// frame the stream: read 28 bytes, validate, read payload_len more.
// Integers are little-endian, doubles travel as IEEE-754 bit patterns
// (core/result_io.hpp) -- the binary counterpart of spec_io's %.17g
// discipline, bit-exact by construction.
//
// Versioning policy (docs/PROTOCOL.md): the magic and the header layout
// never change; `version` bumps on any payload or semantics change, and a
// server rejects versions it does not speak with kError/kBadVersion
// before reading the payload.  Unknown frame TYPES within a known version
// are a protocol error (kError/kBadType), not a crash -- the fuzz battery
// (tests/net/wire_fuzz_test.cpp) pins both.
//
// decode_header() is total: any 28 bytes produce either a valid header or
// a machine-readable reason, never UB.  Byte-level captures of every
// frame type are golden-pinned in tests/net/golden/ so an accidental
// layout change breaks CI (tests/net/wire_golden_test.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace chainckpt::net {

inline constexpr std::uint8_t kProtocolVersion = 1;
inline constexpr std::size_t kHeaderBytes = 28;
/// "CKPT" in wire order (byte 0 = 'C').
inline constexpr std::uint8_t kMagic[4] = {0x43, 0x4B, 0x50, 0x54};
/// Default ceiling on declared payload lengths; a header declaring more
/// is rejected before any allocation (WireServerOptions can lower it).
inline constexpr std::uint32_t kDefaultMaxPayloadBytes = 16u << 20;

/// Frame types of protocol version 1.  Values are wire-stable: new types
/// append, existing values never renumber (golden-pinned).
enum class FrameType : std::uint8_t {
  kHello = 1,         ///< client -> server: first frame; binds the tenant
  kWelcome = 2,       ///< server -> client: version + limits
  kSubmit = 3,        ///< client -> server: one job (payload: job request)
  kSubmitAck = 4,     ///< server -> client: admitted/rejected status
  kPoll = 5,          ///< client -> server: status query (empty payload)
  kStatus = 6,        ///< server -> client: snapshot (result if terminal)
  kCancel = 7,        ///< client -> server: cancel the request id
  kCancelAck = 8,     ///< server -> client: u8 "cancel reached the job"
  kResult = 9,        ///< server -> client: streamed terminal status
  kRetryAfter = 10,   ///< server -> client: backpressure, not failure
  kError = 11,        ///< server -> client: protocol-level error
  kStatsRequest = 12, ///< client -> server: empty payload
  kStatsReply = 13,   ///< server -> client: ServiceStats JSON text
  kGoodbye = 14,      ///< client -> server: orderly close
};

/// True for the type values this protocol version defines.
bool frame_type_known(std::uint8_t raw) noexcept;
const char* to_string(FrameType type) noexcept;

/// Submit flag: stream the terminal Result frame to this connection as
/// soon as the job completes (no polling needed).
inline constexpr std::uint16_t kFlagStreamResult = 1u << 0;

/// Machine-readable error codes carried by kError payloads.
enum class WireError : std::uint16_t {
  kNone = 0,
  kBadMagic = 1,        ///< first 4 bytes are not "CKPT"
  kBadVersion = 2,      ///< version byte != kProtocolVersion
  kBadType = 3,         ///< unknown FrameType value
  kPayloadTooLarge = 4, ///< declared length over the server's ceiling
  kBadPayload = 5,      ///< well-framed but undecodable payload
  kUnknownRequest = 6,  ///< Poll/Cancel for an id not live on this
                        ///< connection: never sent, or already retired
  kDuplicateRequest = 7,///< Submit reusing a live request id
  kTenantMismatch = 8,  ///< frame tenant differs from the connection's
  kNotAccepting = 9,    ///< server shutting down
};

const char* to_string(WireError error) noexcept;

struct FrameHeader {
  std::uint8_t version = kProtocolVersion;
  FrameType type = FrameType::kHello;
  std::uint16_t flags = 0;
  std::uint64_t tenant_id = 0;
  std::uint64_t request_id = 0;
  std::uint32_t payload_size = 0;
};

/// Header validation outcome; kOk means the header fields were filled in.
enum class DecodeStatus : std::uint8_t {
  kOk,
  kNeedMoreData,    ///< fewer than kHeaderBytes available
  kBadMagic,
  kBadVersion,
  kBadType,
  kPayloadTooLarge,
};

/// Maps the error statuses onto WireError (kOk/kNeedMoreData -> kNone).
WireError to_wire_error(DecodeStatus status) noexcept;

/// Appends the 28-byte header for `payload_size` payload bytes.
void encode_header(std::vector<std::uint8_t>& out, const FrameHeader& header);

/// One whole frame: header + payload copy.
std::vector<std::uint8_t> encode_frame(const FrameHeader& header,
                                       const std::vector<std::uint8_t>& payload);

/// Validates and decodes the first kHeaderBytes of [data, data+size).
/// Total: every input yields kOk (header filled) or a precise reason.
/// `max_payload` guards hostile declared lengths.
DecodeStatus decode_header(const std::uint8_t* data, std::size_t size,
                           FrameHeader& header,
                           std::uint32_t max_payload = kDefaultMaxPayloadBytes);

}  // namespace chainckpt::net
