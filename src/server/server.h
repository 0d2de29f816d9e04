// vist_server: a TCP serving front end over any vist::QueryableIndex.
//
// The paper's index is dynamic precisely so it can absorb live
// insert/delete traffic next to queries; this class is the piece that
// turns the in-process engines into a *service*. It speaks the
// length-prefixed binary protocol of server/protocol.h (spec in
// docs/SERVING.md) and adds the three things a front end owes its
// operators:
//
//   * Request batching — worker threads drain the dispatch queue in
//     batches of up to 8 requests, amortizing queue locking when requests
//     arrive faster than they complete.
//   * Admission control — two bounds. Per connection, at most
//     `max_pipeline` requests may be in flight; past that the reader simply
//     stops reading the socket (deferred reads), so backpressure propagates
//     through TCP to the client. Server-wide, at most `max_inflight`
//     requests may be queued or executing; past that new requests are
//     answered kBusy immediately (`server.rejected`) rather than queued
//     into unbounded memory.
//   * Deadline shedding — a request carrying a `deadline_ms` budget
//     whose deadline passes while it waits in the queue is answered
//     kDeadlineExceeded without being executed (`server.shed`); the
//     remaining budget of the ones that do run is passed to the engine,
//     which cancels cooperatively (QueryOptions::deadline).
//   * Graceful shutdown — Stop() (and the destructor) stops accepting,
//     rejects frames that arrive during the drain with kShuttingDown,
//     completes every request already admitted (`server.drained`), writes
//     their responses, and only then closes connections and joins all
//     threads.
//
// Thread shape: one accept thread, one reader thread per connection, and
// `num_workers` worker threads sharing a bounded dispatch queue. All
// server mutexes are leaves with respect to the engine lock order
// (docs/CONCURRENCY.md): no server lock is ever held across a call into
// the index.
//
// Read-path latency: a QUERY never waits on a writer. The engine pins a
// copy-on-write snapshot instead of taking a reader lock
// (docs/CONCURRENCY.md "Snapshots"), so a multi-hundred-millisecond bulk
// INSERT executing on one worker no longer stalls the QUERY latency of
// the others — bench_mixed_workload's writer_stall cell measures exactly
// this.
//
// QueryableIndex carries no mutation entry points (engines differ in how
// documents enter), so writes go through the narrow DocumentWriter
// interface below; pass nullptr to serve a read-only index.

#ifndef VIST_SERVER_SERVER_H_
#define VIST_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/socket.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "exec/queryable_index.h"
#include "server/protocol.h"

namespace vist {

class VistIndex;

namespace server {

/// The write side of the serving surface: how INSERT/DELETE frames become
/// engine mutations. Implementations must be safe to call from multiple
/// worker threads concurrently (the engines' writer locks serialize the
/// actual mutations).
class DocumentWriter {
 public:
  virtual ~DocumentWriter() = default;

  /// Parses and indexes `xml` under `doc_id`.
  virtual Status Insert(std::string_view xml, uint64_t doc_id) = 0;

  /// Removes the document previously inserted with exactly this content.
  virtual Status Delete(std::string_view xml, uint64_t doc_id) = 0;
};

/// DocumentWriter over a VistIndex (borrowed; must outlive the writer):
/// parses each payload and inserts or deletes the document. Typically the
/// same index sits wrapped in an exec::CachingIndex on the server's query
/// side; mutations here bump the index epoch, which is exactly the cache's
/// invalidation signal.
class VistIndexWriter : public DocumentWriter {
 public:
  explicit VistIndexWriter(VistIndex* index) : index_(index) {}

  Status Insert(std::string_view xml, uint64_t doc_id) override;
  Status Delete(std::string_view xml, uint64_t doc_id) override;

 private:
  VistIndex* const index_;
};

struct ServerOptions {
  /// Port to listen on (loopback). 0 asks the kernel for an ephemeral
  /// port; read the actual one back with VistServer::port().
  uint16_t port = 0;
  /// Worker threads executing requests.
  int num_workers = 2;
  /// Server-wide cap on requests queued + executing; beyond it new
  /// requests are rejected with kBusy.
  size_t max_inflight = 256;
  /// Per-connection cap on requests in flight; beyond it the connection's
  /// reader defers reads until responses drain (TCP backpressure).
  size_t max_pipeline = 32;
  /// Frames whose declared body length exceeds this are rejected with
  /// kFrameTooLarge and the connection is closed (the stream cannot be
  /// trusted past a hostile length).
  size_t max_frame_bytes = 1u << 20;
  /// Test seam: runs on the worker thread immediately before each request
  /// executes. Lets tests hold workers mid-flight to observe admission
  /// control and shutdown draining deterministically.
  std::function<void(const Request&)> pre_dispatch_hook;
};

class VistServer {
 public:
  /// Serves queries (and STATS/FLUSH) from `index` and writes through
  /// `writer` (nullptr: INSERT/DELETE answer kNotSupported). Both are
  /// borrowed and must outlive the server.
  VistServer(QueryableIndex* index, DocumentWriter* writer,
             const ServerOptions& options = {});

  /// Stops gracefully (drains in-flight work) if still running.
  ~VistServer();

  VistServer(const VistServer&) = delete;
  VistServer& operator=(const VistServer&) = delete;

  /// Binds, listens, and starts the accept/worker threads.
  Status Start();

  /// Graceful shutdown: stop accepting, reject newly arriving frames,
  /// finish every admitted request and write its response, then close
  /// connections and join every thread. Idempotent.
  void Stop();

  /// The bound port (valid after Start()).
  uint16_t port() const { return port_; }

 private:
  struct Connection {
    UniqueFd fd;

    /// Serializes response frames onto the socket (workers complete out of
    /// order). Leaf lock: held across the socket write, never while taking
    /// any other lock.
    Mutex write_mu{LockRank::kServerConnWrite};

    /// Requests read off this connection but not yet responded to. The
    /// reader waits on `cv` below `max_pipeline`; workers decrement.
    Mutex mu{LockRank::kServerConn};
    std::condition_variable_any cv;
    size_t inflight VIST_GUARDED_BY(mu) = 0;
  };

  struct Work {
    std::shared_ptr<Connection> conn;
    Request request;
    std::chrono::steady_clock::time_point admitted_at;
    /// The request's deadline_ms budget anchored at admission time
    /// (infinite when the request carried none). Workers shed work whose
    /// deadline passed while it sat in the queue and pass the rest of the
    /// budget into the engine as QueryOptions::deadline.
    Deadline deadline;
  };

  void AcceptLoop();
  void ReaderLoop(std::shared_ptr<Connection> conn);
  void WorkerLoop();

  /// Decodes one frame body and either admits it to the queue or writes a
  /// rejection response. Returns false when the connection must close
  /// (malformed input).
  bool DispatchFrame(const std::shared_ptr<Connection>& conn, Slice body);

  Response HandleRequest(const Request& request, const Deadline& deadline);

  /// Encodes and writes `resp` under the connection's write lock. Write
  /// failures mean the peer is gone; they are counted, not propagated.
  void WriteResponse(const std::shared_ptr<Connection>& conn,
                     const Response& resp);

  QueryableIndex* const index_;
  DocumentWriter* const writer_;
  const ServerOptions options_;

  UniqueFd listener_;
  uint16_t port_ = 0;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};

  /// One flag stops the accept loop and every reader loop; all three poll
  /// it at least every poll interval.
  std::atomic<bool> stop_io_{false};

  /// Dispatch queue and the server-wide admission state.
  Mutex queue_mu_{LockRank::kServerQueue};
  std::condition_variable_any queue_cv_;
  std::deque<Work> queue_ VIST_GUARDED_BY(queue_mu_);
  size_t inflight_total_ VIST_GUARDED_BY(queue_mu_) = 0;
  bool draining_ VIST_GUARDED_BY(queue_mu_) = false;
  bool workers_stop_ VIST_GUARDED_BY(queue_mu_) = false;

  Mutex conns_mu_{LockRank::kServerConnList};
  std::vector<std::shared_ptr<Connection>> conns_ VIST_GUARDED_BY(conns_mu_);
  std::vector<std::thread> readers_ VIST_GUARDED_BY(conns_mu_);

  std::thread accept_thread_;
  std::vector<std::thread> workers_;
};

}  // namespace server
}  // namespace vist

#endif  // VIST_SERVER_SERVER_H_
