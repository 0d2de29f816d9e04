#include "server/server.h"

#include <chrono>

#include "common/coding.h"
#include "obs/metrics.h"
#include "vist/vist_index.h"
#include "xml/parser.h"

namespace vist {
namespace server {

namespace {

/// Stop-flag poll interval for the accept and reader loops: an upper bound
/// on how long Stop() waits for a quiescent loop to notice.
constexpr int kPollMs = 50;

/// One recv's worth of buffered input.
constexpr size_t kReadChunkBytes = 16384;

/// Max requests a worker drains from the queue per wakeup (amortizes queue
/// locking under load).
constexpr size_t kBatchMax = 8;

obs::Counter& ConnectionsCounter() {
  static obs::Counter& c = obs::GetCounter("server.connections");
  return c;
}
obs::Gauge& ActiveConnectionsGauge() {
  static obs::Gauge& g = obs::GetGauge("server.active_connections");
  return g;
}
obs::Counter& FramesCounter() {
  static obs::Counter& c = obs::GetCounter("server.frames");
  return c;
}
obs::Counter& TornFramesCounter() {
  static obs::Counter& c = obs::GetCounter("server.frames.torn");
  return c;
}
obs::Counter& RejectedCounter() {
  static obs::Counter& c = obs::GetCounter("server.rejected");
  return c;
}
obs::Counter& DrainedCounter() {
  static obs::Counter& c = obs::GetCounter("server.drained");
  return c;
}
obs::Counter& BatchesCounter() {
  static obs::Counter& c = obs::GetCounter("server.batches");
  return c;
}
obs::Counter& WriteErrorsCounter() {
  static obs::Counter& c = obs::GetCounter("server.write_errors");
  return c;
}
obs::Counter& ShedCounter() {
  static obs::Counter& c = obs::GetCounter("server.shed");
  return c;
}
obs::Counter& DeadlineExceededCounter() {
  static obs::Counter& c = obs::GetCounter("server.deadline_exceeded");
  return c;
}
obs::Histogram& RequestLatencyHistogram() {
  static obs::Histogram& h = obs::GetHistogram("server.request_latency_us");
  return h;
}

ServerOptions Sanitize(ServerOptions options) {
  if (options.num_workers < 1) options.num_workers = 1;
  if (options.max_inflight < 1) options.max_inflight = 1;
  if (options.max_pipeline < 1) options.max_pipeline = 1;
  return options;
}

}  // namespace

Status VistIndexWriter::Insert(std::string_view xml, uint64_t doc_id) {
  auto doc = xml::Parse(xml);
  if (!doc.ok()) return doc.status();
  return index_->InsertDocument(*doc->root(), doc_id);
}

Status VistIndexWriter::Delete(std::string_view xml, uint64_t doc_id) {
  auto doc = xml::Parse(xml);
  if (!doc.ok()) return doc.status();
  return index_->DeleteDocument(*doc->root(), doc_id);
}

VistServer::VistServer(QueryableIndex* index, DocumentWriter* writer,
                       const ServerOptions& options)
    : index_(index), writer_(writer), options_(Sanitize(options)) {}

VistServer::~VistServer() { Stop(); }

Status VistServer::Start() {
  if (started_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("server already started");
  }
  VIST_ASSIGN_OR_RETURN(listener_, ListenTcp(options_.port));
  VIST_ASSIGN_OR_RETURN(port_, LocalPort(listener_.get()));
  started_.store(true, std::memory_order_release);
  accept_thread_ = std::thread(&VistServer::AcceptLoop, this);
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back(&VistServer::WorkerLoop, this);
  }
  return Status::OK();
}

void VistServer::Stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  bool expected = false;
  if (!stopped_.compare_exchange_strong(expected, true)) return;

  // Phase 1: no new work. Frames that arrive from here on are rejected
  // with kShuttingDown; the accept and reader loops see stop_io_ within
  // one poll interval.
  {
    MutexLock lock(queue_mu_);
    draining_ = true;
  }
  stop_io_.store(true, std::memory_order_release);
  {
    MutexLock lock(conns_mu_);
    for (const auto& conn : conns_) {
      {
        // Taken and dropped so a reader blocked in its pipeline wait cannot
        // miss the notify below.
        MutexLock conn_lock(conn->mu);
      }
      conn->cv.notify_all();
    }
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> readers;
  {
    MutexLock lock(conns_mu_);
    readers.swap(readers_);
  }
  for (auto& reader : readers) reader.join();

  // Phase 2: the admitted set is now frozen; drain it. Workers keep
  // running until the queue and every executing request are done, so every
  // admitted request gets its response before any socket closes.
  {
    MutexLock lock(queue_mu_);
    queue_mu_.Await(queue_cv_, [this]() VIST_REQUIRES(queue_mu_) {
      return inflight_total_ == 0;
    });
    workers_stop_ = true;
  }
  queue_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
  workers_.clear();

  // Phase 3: teardown.
  {
    MutexLock lock(conns_mu_);
    conns_.clear();
  }
  listener_.reset();
}

void VistServer::AcceptLoop() {
  while (!stop_io_.load(std::memory_order_acquire)) {
    bool readable = false;
    if (!WaitReadable(listener_.get(), kPollMs, &readable).ok()) break;
    if (!readable) continue;
    auto accepted = AcceptConn(listener_.get());
    if (!accepted.ok()) continue;  // transient (peer reset before accept)
    ConnectionsCounter().Increment();
    ActiveConnectionsGauge().Add(1);
    auto conn = std::make_shared<Connection>();
    conn->fd = std::move(accepted).value();
    MutexLock lock(conns_mu_);
    conns_.push_back(conn);
    readers_.emplace_back(&VistServer::ReaderLoop, this, conn);
  }
}

void VistServer::ReaderLoop(std::shared_ptr<Connection> conn) {
  std::string buffer;
  bool closed_mid_frame = false;
  bool close_conn = false;
  char chunk[kReadChunkBytes];

  while (!close_conn && !stop_io_.load(std::memory_order_acquire)) {
    // Drain every complete frame already buffered, pausing for pipeline
    // capacity before each (this thread is the connection's only producer,
    // so capacity observed here cannot be raced away).
    size_t consumed = 0;
    while (buffer.size() - consumed >= kLengthPrefixBytes) {
      const uint32_t body_len = DecodeFixed32LE(buffer.data() + consumed);
      if (body_len > options_.max_frame_bytes) {
        Response resp;
        resp.id = 0;  // the id lives in the body we refuse to read
        resp.status = WireStatus::kFrameTooLarge;
        resp.message = "declared frame length " + std::to_string(body_len) +
                       " exceeds cap " +
                       std::to_string(options_.max_frame_bytes);
        RejectedCounter().Increment();
        WriteResponse(conn, resp);
        close_conn = true;
        break;
      }
      if (buffer.size() - consumed - kLengthPrefixBytes < body_len) break;
      {
        MutexLock lock(conn->mu);
        conn->mu.Await(conn->cv, [&]() VIST_REQUIRES(conn->mu) {
          return conn->inflight < options_.max_pipeline ||
                 stop_io_.load(std::memory_order_acquire);
        });
      }
      // During shutdown the dispatch below answers kShuttingDown, so a
      // stop observed here needs no special case.
      const Slice body(buffer.data() + consumed + kLengthPrefixBytes,
                       body_len);
      if (!DispatchFrame(conn, body)) close_conn = true;
      consumed += kLengthPrefixBytes + body_len;
      if (close_conn) break;
    }
    buffer.erase(0, consumed);
    if (close_conn) break;

    bool readable = false;
    if (!WaitReadable(conn->fd.get(), kPollMs, &readable).ok()) break;
    if (!readable) continue;
    auto got = ReadSome(conn->fd.get(), chunk, sizeof(chunk));
    if (!got.ok()) break;
    if (*got == 0) {  // peer closed
      closed_mid_frame = !buffer.empty();
      break;
    }
    buffer.append(chunk, *got);
  }

  // Frames fully received before the stop still deserve an answer: reject
  // them explicitly (DispatchFrame sees draining_ and answers
  // kShuttingDown) instead of silently dropping them with the connection.
  if (!close_conn && stop_io_.load(std::memory_order_acquire)) {
    size_t consumed = 0;
    while (buffer.size() - consumed >= kLengthPrefixBytes) {
      const uint32_t body_len = DecodeFixed32LE(buffer.data() + consumed);
      if (body_len > options_.max_frame_bytes ||
          buffer.size() - consumed - kLengthPrefixBytes < body_len) {
        break;
      }
      const Slice body(buffer.data() + consumed + kLengthPrefixBytes,
                       body_len);
      if (!DispatchFrame(conn, body)) break;
      consumed += kLengthPrefixBytes + body_len;
    }
  }

  if (closed_mid_frame) TornFramesCounter().Increment();

  // Let every admitted request finish and get its response onto the wire
  // before the socket goes away.
  {
    MutexLock lock(conn->mu);
    conn->mu.Await(conn->cv, [&]() VIST_REQUIRES(conn->mu) {
      return conn->inflight == 0;
    });
  }
  conn->fd.reset();
  ActiveConnectionsGauge().Add(-1);
}

bool VistServer::DispatchFrame(const std::shared_ptr<Connection>& conn,
                               Slice body) {
  FramesCounter().Increment();
  Request request;
  const Status decoded = DecodeRequest(body, &request);
  if (!decoded.ok()) {
    Response resp;
    resp.id = RequestIdOrZero(body);
    resp.status = WireStatus::kMalformed;
    resp.message = decoded.message();
    RejectedCounter().Increment();
    WriteResponse(conn, resp);
    return false;  // the stream cannot be resynchronized; close
  }

  const Opcode op = request.op;
  const uint64_t id = request.id;
  {
    MutexLock lock(conn->mu);
    ++conn->inflight;
  }
  WireStatus reject = WireStatus::kOk;
  {
    MutexLock lock(queue_mu_);
    if (draining_) {
      reject = WireStatus::kShuttingDown;
    } else if (inflight_total_ >= options_.max_inflight) {
      reject = WireStatus::kBusy;
    } else {
      ++inflight_total_;
      // The deadline budget is anchored here, at admission: queueing time
      // spends it, which is what lets workers shed stale work later.
      const Deadline deadline = request.deadline_ms > 0
                                    ? Deadline::AfterMillis(request.deadline_ms)
                                    : Deadline();
      queue_.push_back(Work{conn, std::move(request),
                            std::chrono::steady_clock::now(), deadline});
    }
  }
  if (reject != WireStatus::kOk) {
    {
      MutexLock lock(conn->mu);
      --conn->inflight;
    }
    conn->cv.notify_all();
    Response resp;
    resp.op = op;
    resp.id = id;
    resp.status = reject;
    resp.message = reject == WireStatus::kBusy
                       ? "in-flight cap reached, retry later"
                       : "server is draining";
    RejectedCounter().Increment();
    WriteResponse(conn, resp);
    return true;  // rejection is not a framing error; keep the connection
  }
  queue_cv_.notify_one();
  return true;
}

void VistServer::WorkerLoop() {
  for (;;) {
    std::vector<Work> batch;
    {
      MutexLock lock(queue_mu_);
      queue_mu_.Await(queue_cv_, [this]() VIST_REQUIRES(queue_mu_) {
        return !queue_.empty() || workers_stop_;
      });
      if (queue_.empty() && workers_stop_) return;
      while (!queue_.empty() && batch.size() < kBatchMax) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    BatchesCounter().Increment();
    for (Work& work : batch) {
      Response resp;
      if (work.deadline.expired()) {
        // Shed without executing: the budget was spent waiting in the
        // queue, so running the request now only wastes worker time the
        // still-live requests behind it need.
        resp.op = work.request.op;
        resp.id = work.request.id;
        resp.status = WireStatus::kDeadlineExceeded;
        resp.message = "deadline expired before dispatch";
        ShedCounter().Increment();
        DeadlineExceededCounter().Increment();
      } else {
        if (options_.pre_dispatch_hook) {
          options_.pre_dispatch_hook(work.request);
        }
        resp = HandleRequest(work.request, work.deadline);
        if (resp.status == WireStatus::kDeadlineExceeded) {
          DeadlineExceededCounter().Increment();
        }
      }
      WriteResponse(work.conn, resp);
      const auto elapsed =
          std::chrono::steady_clock::now() - work.admitted_at;
      RequestLatencyHistogram().Record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
              .count()));
      {
        MutexLock lock(work.conn->mu);
        --work.conn->inflight;
      }
      work.conn->cv.notify_all();
      {
        MutexLock lock(queue_mu_);
        --inflight_total_;
        if (draining_) DrainedCounter().Increment();
        if (inflight_total_ == 0) queue_cv_.notify_all();
      }
    }
  }
}

Response VistServer::HandleRequest(const Request& request,
                                   const Deadline& deadline) {
  Response resp;
  resp.op = request.op;
  resp.id = request.id;
  Status status = Status::OK();
  switch (request.op) {
    case Opcode::kQuery: {
      QueryOptions query_options;
      query_options.verify = request.verify;
      // Only queries are cancelled: a mutation abandoned halfway would
      // leave more mess than finishing it costs.
      query_options.deadline = deadline;
      // No explicit snapshot: the engine pins its current version
      // internally (lock-free — a concurrent INSERT cannot stall this),
      // and leaving QueryOptions::snapshot unset keeps the request
      // eligible for exec::CachingIndex's result tier.
      auto ids = index_->Query(request.path, query_options);
      if (ids.ok()) {
        resp.doc_ids = std::move(ids).value();
      } else {
        status = ids.status();
      }
      break;
    }
    case Opcode::kInsert:
      status = writer_ != nullptr
                   ? writer_->Insert(request.xml, request.doc_id)
                   : Status::NotSupported("server has no document writer");
      break;
    case Opcode::kDelete:
      status = writer_ != nullptr
                   ? writer_->Delete(request.xml, request.doc_id)
                   : Status::NotSupported("server has no document writer");
      break;
    case Opcode::kFlush:
      status = index_->Flush();
      break;
    case Opcode::kStats: {
      auto stats = index_->Stats();
      if (stats.ok()) {
        resp.stats = *stats;
        resp.epoch = index_->epoch();
      } else {
        status = stats.status();
      }
      break;
    }
  }
  if (!status.ok()) {
    resp.status = ToWireStatus(status);
    resp.message = status.message();
  }
  return resp;
}

void VistServer::WriteResponse(const std::shared_ptr<Connection>& conn,
                               const Response& resp) {
  std::string frame;
  EncodeResponse(resp, &frame);
  MutexLock lock(conn->write_mu);
  const Status written =
      WriteFull(conn->fd.get(), frame.data(), frame.size());
  if (!written.ok()) {
    WriteErrorsCounter().Increment();
    IgnoreError(written,
                "the peer is gone; there is no one left to report it to");
  }
}

}  // namespace server
}  // namespace vist
