// A client for the vist_server wire protocol (server/protocol.h,
// docs/SERVING.md).
//
// Two usage levels:
//
//   * Blocking RPCs — Query/Insert/Delete/Flush/Stats send one request and
//     wait for its response. This is what applications and the
//     mixed-workload bench use. These calls are fault-tolerant: a broken
//     connection is re-established with exponential backoff, a per-call
//     timeout is both sent to the server (the deadline_ms field) and
//     enforced locally, and failed attempts are retried — but only when
//     safe (see the retry matrix in docs/SERVING.md) and only while the
//     retry budget lasts, so a struggling server sees load shed rather
//     than amplified.
//   * Pipelining — Send() and Receive() are exposed separately so
//     harnesses can keep many requests in flight on one connection (the
//     admission-control and shutdown-drain tests depend on this). Requests
//     carry caller-visible ids; responses arrive in completion order, so a
//     pipelining caller matches them by id. The pipelining primitives do
//     not retry or reconnect — the harness owns that policy.
//
// A Client is a single socket and is NOT thread-safe; serving harnesses
// open one per thread.

#ifndef VIST_SERVER_CLIENT_H_
#define VIST_SERVER_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/deadline.h"
#include "common/random.h"
#include "common/result.h"
#include "common/socket.h"
#include "common/status.h"
#include "server/protocol.h"

namespace vist {
namespace server {

/// The STATS answer: engine statistics plus the mutation epoch.
struct ServerStats {
  IndexStats index;
  uint64_t epoch = 0;
};

struct ClientOptions {
  /// Budget for establishing (or re-establishing) the TCP connection.
  int connect_timeout_ms = 5000;

  /// Per-attempt timeout for the blocking RPCs; 0 = wait forever. The
  /// same value rides in the request's deadline_ms field so the server
  /// can shed or cancel work the client has already given up on.
  uint32_t call_timeout_ms = 0;

  /// Grace the local wait grants beyond call_timeout_ms, so a response
  /// the server produced just inside the deadline (kDeadlineExceeded
  /// included) still reaches us instead of poisoning the connection.
  uint32_t call_slack_ms = 250;

  /// Total tries per blocking RPC (first attempt included).
  int max_attempts = 3;

  /// Exponential backoff between attempts: starts at backoff_initial_ms,
  /// doubles per retry, caps at backoff_max_ms; jittered uniformly in
  /// [backoff/2, backoff) to decorrelate clients.
  int backoff_initial_ms = 10;
  int backoff_max_ms = 2000;

  /// Token-bucket retry budget: a retry costs one token and is skipped
  /// (the error surfaces) when none are left; every successful response
  /// refills a tenth of a token, up to retry_budget. Keeps retry
  /// amplification bounded when the server is down rather than slow.
  double retry_budget = 10.0;

  /// Seed for the backoff jitter (deterministic for tests).
  uint64_t jitter_seed = 1;
};

class Client {
 public:
  /// Connects to a vist_server at `host`:`port` (one attempt, bounded by
  /// connect_timeout_ms; the blocking RPCs reconnect on later failures).
  static Result<std::unique_ptr<Client>> Connect(
      const std::string& host, uint16_t port, const ClientOptions& options = {});

  // --- blocking RPCs (send one request, wait for its response) ---

  Result<std::vector<uint64_t>> Query(std::string_view path,
                                      bool verify = false);
  Status Insert(std::string_view xml, uint64_t doc_id);
  Status Delete(std::string_view xml, uint64_t doc_id);
  Status Flush();
  Result<ServerStats> Stats();

  // --- pipelining primitives (no retries, no reconnects) ---

  /// A fresh request id (monotone per client).
  uint64_t NextId() { return next_id_++; }

  /// Encodes and writes one request frame without waiting.
  Status Send(const Request& request);

  /// Reads the next response frame, waiting at most until `deadline`
  /// (default: forever). NotFound("connection closed") on clean EOF;
  /// DeadlineExceeded leaves the connection poisoned — a late response
  /// may still arrive — so blocking RPCs reconnect after one.
  Result<Response> Receive(const Deadline& deadline = Deadline());

  /// Whether the underlying socket is currently open.
  bool connected() const { return fd_.get() >= 0; }

  /// Retries performed by the blocking RPCs since construction.
  uint64_t retries() const { return retries_; }
  /// Successful reconnects since construction (the initial connect is
  /// not counted).
  uint64_t reconnects() const { return reconnects_; }

 private:
  Client(UniqueFd fd, std::string host, uint16_t port, ClientOptions options)
      : fd_(std::move(fd)),
        host_(std::move(host)),
        port_(port),
        options_(options),
        rng_(options.jitter_seed),
        retry_tokens_(options.retry_budget) {}

  /// The blocking-RPC engine: attempt loop with reconnect, local + wire
  /// deadlines, budgeted retries. `idempotent` gates retrying after a
  /// failure that may have executed (see the matrix in docs/SERVING.md).
  Result<Response> Call(Request request, bool idempotent);

  /// One send + receive + id check on the current connection.
  Result<Response> Attempt(const Request& request, const Deadline& deadline);

  /// Re-establishes the socket (connect_timeout_ms budget).
  Status Reconnect();

  /// True if a retry token was available (and consumed).
  bool ConsumeRetryToken();

  /// Sleeps the jittered exponential backoff for retry number `retry`.
  void Backoff(int retry);

  UniqueFd fd_;
  const std::string host_;
  const uint16_t port_;
  const ClientOptions options_;
  Random rng_;
  double retry_tokens_;
  uint64_t next_id_ = 1;
  uint64_t retries_ = 0;
  uint64_t reconnects_ = 0;
};

}  // namespace server
}  // namespace vist

#endif  // VIST_SERVER_CLIENT_H_
