#include "server/client.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/coding.h"
#include "obs/metrics.h"

namespace vist {
namespace server {

namespace {

// Retry-budget tokens each successful response refills.
constexpr double kRetryRefillPerSuccess = 0.1;

// Metric reference: docs/OBSERVABILITY.md (server section).
obs::Counter& RetriesCounter() {
  static obs::Counter& c = obs::GetCounter("client.retries");
  return c;
}
obs::Counter& ReconnectsCounter() {
  static obs::Counter& c = obs::GetCounter("client.reconnects");
  return c;
}

}  // namespace

Result<std::unique_ptr<Client>> Client::Connect(const std::string& host,
                                                uint16_t port,
                                                const ClientOptions& options) {
  auto fd = ConnectTcp(host, port, options.connect_timeout_ms);
  if (!fd.ok()) return fd.status();
  return std::unique_ptr<Client>(
      new Client(std::move(fd).value(), host, port, options));
}

Status Client::Send(const Request& request) {
  std::string frame;
  EncodeRequest(request, &frame);
  return WriteFull(fd_.get(), frame.data(), frame.size());
}

Result<Response> Client::Receive(const Deadline& deadline) {
  char prefix[kLengthPrefixBytes];
  VIST_RETURN_IF_ERROR(
      ReadFullDeadline(fd_.get(), prefix, sizeof(prefix), deadline));
  const uint32_t body_len = DecodeFixed32LE(prefix);
  std::string body(body_len, '\0');
  VIST_RETURN_IF_ERROR(
      ReadFullDeadline(fd_.get(), body.data(), body.size(), deadline));
  Response resp;
  VIST_RETURN_IF_ERROR(DecodeResponse(Slice(body), &resp));
  return resp;
}

Status Client::Reconnect() {
  fd_.reset();
  auto fd = ConnectTcp(host_, port_, options_.connect_timeout_ms);
  if (!fd.ok()) return fd.status();
  fd_ = std::move(fd).value();
  ++reconnects_;
  ReconnectsCounter().Increment();
  return Status::OK();
}

bool Client::ConsumeRetryToken() {
  if (retry_tokens_ < 1.0) return false;
  retry_tokens_ -= 1.0;
  return true;
}

void Client::Backoff(int retry) {
  int backoff = options_.backoff_initial_ms;
  for (int i = 1; i < retry && backoff < options_.backoff_max_ms; ++i) {
    backoff *= 2;
  }
  backoff = std::clamp(backoff, 1, std::max(options_.backoff_max_ms, 1));
  // Jitter into [backoff/2, backoff) so synchronized clients spread out.
  const int sleep_ms = backoff / 2 + static_cast<int>(rng_.Uniform(
                                         static_cast<uint64_t>(backoff / 2 + 1)));
  std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
}

Result<Response> Client::Attempt(const Request& request,
                                 const Deadline& deadline) {
  VIST_RETURN_IF_ERROR(Send(request));
  auto resp = Receive(deadline);
  if (!resp.ok()) return resp.status();
  if (resp->id != request.id) {
    return Status::IOError("response id " + std::to_string(resp->id) +
                           " does not match request id " +
                           std::to_string(request.id));
  }
  return resp;
}

Result<Response> Client::Call(Request request, bool idempotent) {
  if (request.deadline_ms == 0) request.deadline_ms = options_.call_timeout_ms;
  Status last_error = Status::OK();
  for (int attempt = 1;; ++attempt) {
    // Whether the failure mode of this attempt permits another one. A
    // failed (re)connect always does: the request never left this
    // process. A transport failure after Send only does for idempotent
    // ops — the server may have executed the request and the answer was
    // lost. A kBusy response always does: the server refused before
    // executing. Any other server answer is final.
    bool retryable = false;
    if (!connected()) {
      last_error = Reconnect();
      retryable = true;
    } else {
      last_error = Status::OK();
    }
    if (last_error.ok()) {
      // Fresh id per attempt: a retry runs on a fresh connection, and a
      // new id guards against ever pairing it with a stale response.
      request.id = NextId();
      const Deadline deadline =
          request.deadline_ms > 0
              ? Deadline::AfterMillis(static_cast<int64_t>(request.deadline_ms) +
                                      options_.call_slack_ms)
              : Deadline();
      auto resp = Attempt(request, deadline);
      if (resp.ok()) {
        if (resp->status == WireStatus::kBusy) {
          last_error = FromWireStatus(resp->status, resp->message);
          retryable = true;
        } else {
          retry_tokens_ = std::min(
              options_.retry_budget,
              retry_tokens_ + kRetryRefillPerSuccess);
          if (resp->status != WireStatus::kOk) {
            return FromWireStatus(resp->status, resp->message);
          }
          return resp;
        }
      } else {
        // The connection is poisoned: bytes may be half-written, or a
        // late response may still arrive. Never reuse it.
        fd_.reset();
        last_error = resp.status();
        if (last_error.IsDeadlineExceeded()) {
          // The per-call budget is spent; retrying would only blow
          // through the caller's deadline further.
          return last_error;
        }
        retryable = idempotent;
      }
    }
    if (!retryable || attempt >= options_.max_attempts ||
        !ConsumeRetryToken()) {
      return last_error;
    }
    ++retries_;
    RetriesCounter().Increment();
    Backoff(attempt);
  }
}

Result<std::vector<uint64_t>> Client::Query(std::string_view path,
                                            bool verify) {
  Request request;
  request.op = Opcode::kQuery;
  request.verify = verify;
  request.path = std::string(path);
  auto resp = Call(std::move(request), /*idempotent=*/true);
  if (!resp.ok()) return resp.status();
  return std::move(resp->doc_ids);
}

Status Client::Insert(std::string_view xml, uint64_t doc_id) {
  Request request;
  request.op = Opcode::kInsert;
  request.doc_id = doc_id;
  request.xml = std::string(xml);
  // Not idempotent at the transport level: a lost response may mean the
  // insert happened (blind retry would double-insert the doc id).
  return Call(std::move(request), /*idempotent=*/false).status();
}

Status Client::Delete(std::string_view xml, uint64_t doc_id) {
  Request request;
  request.op = Opcode::kDelete;
  request.doc_id = doc_id;
  request.xml = std::string(xml);
  return Call(std::move(request), /*idempotent=*/false).status();
}

Status Client::Flush() {
  Request request;
  request.op = Opcode::kFlush;
  // Flushing twice is the same as flushing once; safe to retry blind.
  return Call(std::move(request), /*idempotent=*/true).status();
}

Result<ServerStats> Client::Stats() {
  Request request;
  request.op = Opcode::kStats;
  auto resp = Call(std::move(request), /*idempotent=*/true);
  if (!resp.ok()) return resp.status();
  ServerStats stats;
  stats.index = resp->stats;
  stats.epoch = resp->epoch;
  return stats;
}

}  // namespace server
}  // namespace vist
