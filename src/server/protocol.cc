#include "server/protocol.h"

#include "common/coding.h"

namespace vist {
namespace server {

namespace {

constexpr uint8_t kVerifyFlag = 0x01;

/// Appends `body` to `out` as a complete frame.
void AppendFrame(const std::string& body, std::string* out) {
  char prefix[kLengthPrefixBytes];
  EncodeFixed32LE(prefix, static_cast<uint32_t>(body.size()));
  out->append(prefix, sizeof(prefix));
  out->append(body);
}

void AppendBodyHeader(uint8_t opcode, uint64_t id, std::string* body) {
  body->push_back(static_cast<char>(kProtocolVersion));
  body->push_back(static_cast<char>(opcode));
  char idbuf[8];
  EncodeFixed64LE(idbuf, id);
  body->append(idbuf, sizeof(idbuf));
}

bool GetFixed64(Slice* input, uint64_t* value) {
  if (input->size() < 8) return false;
  *value = DecodeFixed64LE(input->data());
  input->RemovePrefix(8);
  return true;
}

bool GetFixed32(Slice* input, uint32_t* value) {
  if (input->size() < 4) return false;
  *value = DecodeFixed32LE(input->data());
  input->RemovePrefix(4);
  return true;
}

void PutFixed64(std::string* out, uint64_t value) {
  char buf[8];
  EncodeFixed64LE(buf, value);
  out->append(buf, sizeof(buf));
}

void PutFixed32(std::string* out, uint32_t value) {
  char buf[4];
  EncodeFixed32LE(buf, value);
  out->append(buf, sizeof(buf));
}

/// Decodes the shared body header; on success `*body` is left at the
/// payload (for requests that still includes the deadline field — the
/// caller strips it).
Status DecodeBodyHeader(Slice* body, uint8_t* opcode, uint64_t* id) {
  if (body->size() < kBodyHeaderBytes) {
    return Status::ParseError("frame body shorter than the fixed header");
  }
  const auto version = static_cast<uint8_t>((*body)[0]);
  if (version != kProtocolVersion) {
    return Status::ParseError("unsupported protocol version " +
                              std::to_string(version));
  }
  *opcode = static_cast<uint8_t>((*body)[1]);
  body->RemovePrefix(2);
  GetFixed64(body, id);  // size checked above
  return Status::OK();
}

}  // namespace

void EncodeRequest(const Request& req, std::string* out) {
  std::string body;
  AppendBodyHeader(static_cast<uint8_t>(req.op), req.id, &body);
  PutFixed32(&body, req.deadline_ms);
  switch (req.op) {
    case Opcode::kQuery:
      body.push_back(static_cast<char>(req.verify ? kVerifyFlag : 0));
      body.append(req.path);
      break;
    case Opcode::kInsert:
    case Opcode::kDelete:
      PutFixed64(&body, req.doc_id);
      body.append(req.xml);
      break;
    case Opcode::kFlush:
    case Opcode::kStats:
      break;
  }
  AppendFrame(body, out);
}

void EncodeResponse(const Response& resp, std::string* out) {
  std::string body;
  AppendBodyHeader(static_cast<uint8_t>(resp.op) | kResponseBit, resp.id,
                   &body);
  body.push_back(static_cast<char>(resp.status));
  if (resp.status != WireStatus::kOk) {
    body.append(resp.message);
  } else {
    switch (resp.op) {
      case Opcode::kQuery:
        PutFixed32(&body, static_cast<uint32_t>(resp.doc_ids.size()));
        for (uint64_t doc_id : resp.doc_ids) PutFixed64(&body, doc_id);
        break;
      case Opcode::kStats:
        PutFixed64(&body, resp.stats.size_bytes);
        PutFixed64(&body, resp.stats.num_documents);
        PutFixed64(&body, resp.stats.num_entries);
        PutFixed64(&body, resp.stats.max_depth);
        PutFixed64(&body, resp.stats.underflow_runs);
        PutFixed64(&body, resp.epoch);
        break;
      case Opcode::kInsert:
      case Opcode::kDelete:
      case Opcode::kFlush:
        break;
    }
  }
  AppendFrame(body, out);
}

Status DecodeRequest(Slice body, Request* req) {
  uint8_t opcode = 0;
  VIST_RETURN_IF_ERROR(DecodeBodyHeader(&body, &opcode, &req->id));
  if ((opcode & kResponseBit) != 0) {
    return Status::ParseError("response opcode in a request frame");
  }
  if (!GetFixed32(&body, &req->deadline_ms)) {
    return Status::ParseError("request missing deadline field");
  }
  req->op = static_cast<Opcode>(opcode);
  switch (req->op) {
    case Opcode::kQuery: {
      if (body.empty()) return Status::ParseError("QUERY missing flags byte");
      req->verify = (static_cast<uint8_t>(body[0]) & kVerifyFlag) != 0;
      body.RemovePrefix(1);
      req->path = body.ToString();
      return Status::OK();
    }
    case Opcode::kInsert:
    case Opcode::kDelete:
      if (!GetFixed64(&body, &req->doc_id)) {
        return Status::ParseError("INSERT/DELETE missing doc id");
      }
      req->xml = body.ToString();
      return Status::OK();
    case Opcode::kFlush:
    case Opcode::kStats:
      if (!body.empty()) {
        return Status::ParseError("unexpected payload on FLUSH/STATS");
      }
      return Status::OK();
  }
  return Status::ParseError("unknown opcode " + std::to_string(opcode));
}

Status DecodeResponse(Slice body, Response* resp) {
  uint8_t opcode = 0;
  VIST_RETURN_IF_ERROR(DecodeBodyHeader(&body, &opcode, &resp->id));
  if ((opcode & kResponseBit) == 0) {
    return Status::ParseError("request opcode in a response frame");
  }
  resp->op = static_cast<Opcode>(opcode & ~kResponseBit);
  if (body.empty()) return Status::ParseError("response missing status byte");
  resp->status = static_cast<WireStatus>(body[0]);
  body.RemovePrefix(1);
  if (resp->status != WireStatus::kOk) {
    resp->message = body.ToString();
    return Status::OK();
  }
  switch (resp->op) {
    case Opcode::kQuery: {
      uint32_t count = 0;
      if (!GetFixed32(&body, &count) || body.size() != count * 8ull) {
        return Status::ParseError("QUERY response doc-id list truncated");
      }
      resp->doc_ids.clear();
      resp->doc_ids.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        uint64_t doc_id = 0;
        GetFixed64(&body, &doc_id);
        resp->doc_ids.push_back(doc_id);
      }
      return Status::OK();
    }
    case Opcode::kStats:
      if (!GetFixed64(&body, &resp->stats.size_bytes) ||
          !GetFixed64(&body, &resp->stats.num_documents) ||
          !GetFixed64(&body, &resp->stats.num_entries) ||
          !GetFixed64(&body, &resp->stats.max_depth) ||
          !GetFixed64(&body, &resp->stats.underflow_runs) ||
          !GetFixed64(&body, &resp->epoch)) {
        return Status::ParseError("STATS response truncated");
      }
      return Status::OK();
    case Opcode::kInsert:
    case Opcode::kDelete:
    case Opcode::kFlush:
      if (!body.empty()) {
        return Status::ParseError("unexpected payload on mutation response");
      }
      return Status::OK();
  }
  return Status::ParseError("unknown response opcode " +
                            std::to_string(opcode));
}

WireStatus ToWireStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return WireStatus::kOk;
    case StatusCode::kNotFound:
      return WireStatus::kNotFound;
    case StatusCode::kCorruption:
      return WireStatus::kCorruption;
    case StatusCode::kInvalidArgument:
      return WireStatus::kInvalidArgument;
    case StatusCode::kIOError:
      return WireStatus::kIOError;
    case StatusCode::kNotSupported:
      return WireStatus::kNotSupported;
    case StatusCode::kScopeOverflow:
      return WireStatus::kScopeOverflow;
    case StatusCode::kParseError:
      return WireStatus::kParseError;
    case StatusCode::kDeadlineExceeded:
      return WireStatus::kDeadlineExceeded;
  }
  return WireStatus::kIOError;
}

Status FromWireStatus(WireStatus status, std::string_view message) {
  switch (status) {
    case WireStatus::kOk:
      return Status::OK();
    case WireStatus::kNotFound:
      return Status::NotFound(message);
    case WireStatus::kCorruption:
      return Status::Corruption(message);
    case WireStatus::kInvalidArgument:
      return Status::InvalidArgument(message);
    case WireStatus::kIOError:
      return Status::IOError(message);
    case WireStatus::kNotSupported:
      return Status::NotSupported(message);
    case WireStatus::kScopeOverflow:
      return Status::ScopeOverflow(message);
    case WireStatus::kParseError:
      return Status::ParseError(message);
    case WireStatus::kDeadlineExceeded:
      return Status::DeadlineExceeded(message);
    case WireStatus::kBusy:
      return Status::IOError("server busy: " + std::string(message));
    case WireStatus::kShuttingDown:
      return Status::IOError("server shutting down: " + std::string(message));
    case WireStatus::kFrameTooLarge:
      return Status::IOError("frame too large: " + std::string(message));
    case WireStatus::kMalformed:
      return Status::IOError("malformed frame: " + std::string(message));
  }
  return Status::IOError("unknown wire status");
}

uint64_t RequestIdOrZero(Slice body) {
  if (body.size() < kBodyHeaderBytes) return 0;
  return DecodeFixed64LE(body.data() + 2);
}

}  // namespace server
}  // namespace vist
