// The vist_server wire protocol: length-prefixed binary frames over TCP.
//
// Every frame is a 4-byte little-endian body length followed by the body:
//
//   frame    := length(u32 LE) body
//   request  := version(u8) opcode(u8) request_id(u64 LE)
//               deadline_ms(u32 LE) payload
//   response := version(u8) opcode(u8) request_id(u64 LE) payload
//
// The length counts body bytes only (so an empty-payload request has
// length 14). `version` is a compatibility byte: a server answers frames
// whose version it speaks (kProtocolVersion) and rejects others with
// kMalformed, which is what lets the format evolve without ambiguity.
// `deadline_ms` is the request's budget in milliseconds measured from
// server receipt, 0 meaning none. `request_id` is an opaque client token
// echoed verbatim in the response, so clients may pipeline requests and
// match answers out of order.
//
// Responses reuse the request opcode with the high bit set (0x80) and
// prepend a one-byte wire status to the payload. The full frame layout,
// opcode table, and error-code table are documented in docs/SERVING.md —
// keep that spec in sync with this header.
//
// This header is transport-agnostic: it encodes and decodes byte strings
// and never touches a socket, so it is directly fuzzable/testable and a
// second client implementation needs nothing else.

#ifndef VIST_SERVER_PROTOCOL_H_
#define VIST_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "exec/queryable_index.h"

namespace vist {
namespace server {

/// The one protocol version this tree speaks. Bump on any frame layout
/// change; document the delta in docs/SERVING.md.
constexpr uint8_t kProtocolVersion = 2;

/// Bytes of the frame length prefix (u32 LE).
constexpr size_t kLengthPrefixBytes = 4;

/// Fixed body header: version + opcode + request id.
constexpr size_t kBodyHeaderBytes = 1 + 1 + 8;

/// Request opcodes. Responses carry `opcode | kResponseBit`.
enum class Opcode : uint8_t {
  kQuery = 0x01,   // payload: flags(u8, bit0 = verify) + path bytes
  kInsert = 0x02,  // payload: doc_id(u64 LE) + XML text
  kDelete = 0x03,  // payload: doc_id(u64 LE) + XML text
  kFlush = 0x04,   // payload: empty
  kStats = 0x05,   // payload: empty
};

constexpr uint8_t kResponseBit = 0x80;

/// One-byte status in every response. Values 1..8 mirror vist::StatusCode;
/// 16+ are protocol-level conditions with no engine-side equivalent.
enum class WireStatus : uint8_t {
  kOk = 0,
  kNotFound = 1,
  kCorruption = 2,
  kInvalidArgument = 3,
  kIOError = 4,
  kNotSupported = 5,
  kScopeOverflow = 6,
  kParseError = 7,
  kDeadlineExceeded = 8,  // the request's deadline_ms budget ran out
  kBusy = 16,           // admission control: server-wide in-flight cap hit
  kShuttingDown = 17,   // server is draining; request was not executed
  kFrameTooLarge = 18,  // declared length exceeds the cap; connection closes
  kMalformed = 19,      // body failed to decode; connection closes
};

/// A decoded request frame.
struct Request {
  Opcode op = Opcode::kQuery;
  uint64_t id = 0;       // echoed in the response
  /// Deadline budget in milliseconds from server receipt; 0 = none.
  uint32_t deadline_ms = 0;
  bool verify = false;   // kQuery
  std::string path;      // kQuery
  uint64_t doc_id = 0;   // kInsert / kDelete
  std::string xml;       // kInsert / kDelete
};

/// A decoded response frame.
struct Response {
  Opcode op = Opcode::kQuery;  // the request opcode (response bit stripped)
  uint64_t id = 0;
  WireStatus status = WireStatus::kOk;
  std::string message;            // error text when status != kOk
  std::vector<uint64_t> doc_ids;  // kQuery
  IndexStats stats;               // kStats
  uint64_t epoch = 0;             // kStats
};

/// Appends the complete frame (length prefix + body) for `req` to `out`.
void EncodeRequest(const Request& req, std::string* out);

/// Appends the complete frame for `resp` to `out`.
void EncodeResponse(const Response& resp, std::string* out);

/// Decodes a request body (the frame minus its length prefix).
/// ParseError on wrong version, unknown opcode, or truncated payload.
Status DecodeRequest(Slice body, Request* req);

/// Decodes a response body. ParseError on malformed input.
Status DecodeResponse(Slice body, Response* resp);

/// Maps an engine Status onto the wire (kOk for ok()).
WireStatus ToWireStatus(const Status& status);

/// Reconstructs a Status from a response (OK for kOk; protocol-level codes
/// map to IOError with a descriptive message).
Status FromWireStatus(WireStatus status, std::string_view message);

/// Pulls the request id out of a body prefix when at least the fixed header
/// arrived, else returns 0 — used to address error responses for frames
/// that failed to decode.
uint64_t RequestIdOrZero(Slice body);

}  // namespace server
}  // namespace vist

#endif  // VIST_SERVER_PROTOCOL_H_
