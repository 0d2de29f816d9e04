// Bench-owned tracing: decorators around the public calls into each layer
// of the serving stack, so the per-layer view needs no tracing inside the
// program. A traced run installs them:
//
//   VistServer -> TracingIndex(kExec) -> CachingIndex
//              -> TracingIndex(kEngine) -> VistIndex (on a TimingEnv)
//   VistServer -> TracingWriter -> VistIndexWriter
//
// An untraced run installs none of them. While a decorator is installed but
// its Tracer is off, it forwards with one relaxed load of overhead.
//
// Spans live in memory and are written out when the run ends. A server-side
// root span ("exec.query", "engine.insert", ...) carries the request's key
// (the query string or the doc id); LinkToClients() attaches it to the
// client span with the same key whose interval contains it. That is
// unambiguous up to swapping two identical in-flight requests, because
// each connection has one request in flight.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/env.h"
#include "exec/queryable_index.h"
#include "obs/query_profile.h"
#include "server/server.h"

namespace perfbench {

/// Monotonic clock in nanoseconds.
int64_t NowNs();

struct Span {
  const char* name = "";  // a string literal
  uint64_t id = 0;
  uint64_t parent = 0;  // 0: a root (server roots are linked by key later)
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  std::string key;

  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

class Tracer {
 public:
  bool on() const { return on_.load(std::memory_order_relaxed); }
  void set_on(bool on) { on_.store(on, std::memory_order_relaxed); }

  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Record(Span span);

  /// Moves out every span recorded so far.
  std::vector<Span> Take();

 private:
  std::atomic<bool> on_{false};
  std::atomic<uint64_t> next_id_{1};
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// Records one span over its lifetime. Spans opened on the same thread while
/// it is alive name it as their parent.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::string key);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* const tracer_;
  Span span_;
  uint64_t saved_current_;
};

/// Engine work summed over the profiled QueryWithPlan calls.
struct ProfileTotals {
  std::atomic<uint64_t> queries{0};
  std::atomic<uint64_t> range_scans{0};
  std::atomic<uint64_t> entries_scanned{0};
  std::atomic<uint64_t> candidates{0};
  std::atomic<uint64_t> nodes{0};
  std::atomic<uint64_t> pool_hits{0};
  std::atomic<uint64_t> pool_misses{0};

  void Add(const vist::obs::QueryProfile& profile);
};

/// A QueryableIndex decorator at one layer boundary: the server->exec one
/// (kExec) or the exec->engine one (kEngine), which prefixes its span names
/// (query, prepare, execute, flush). Each traced QueryWithPlan that arrives
/// without a QueryProfile gets one, summed into profile_totals().
class TracingIndex : public vist::QueryableIndex {
 public:
  enum class Layer { kExec, kEngine };

  TracingIndex(vist::QueryableIndex* wrapped, Tracer* tracer, Layer layer);

  vist::Result<std::vector<uint64_t>> Query(
      std::string_view path, const vist::QueryOptions& options) override;
  vist::Result<std::shared_ptr<const vist::QueryPlan>> Prepare(
      std::string_view path, const vist::QueryOptions& options) override;
  vist::Result<std::vector<uint64_t>> QueryWithPlan(
      const vist::QueryPlan& plan, const vist::QueryOptions& options) override;
  vist::Result<std::shared_ptr<const vist::Snapshot>> GetSnapshot() override {
    return wrapped_->GetSnapshot();
  }
  vist::Result<vist::IndexStats> Stats() override { return wrapped_->Stats(); }
  vist::Status Flush() override;
  uint64_t epoch() const override { return wrapped_->epoch(); }

  const ProfileTotals& profile_totals() const { return totals_; }

 private:
  vist::QueryableIndex* const wrapped_;
  Tracer* const tracer_;
  const char* const query_name_;
  const char* const prepare_name_;
  const char* const execute_name_;
  const char* const flush_name_;
  ProfileTotals totals_;
};

/// A DocumentWriter decorator: spans "engine.insert" / "engine.delete",
/// keyed by doc id.
class TracingWriter : public vist::server::DocumentWriter {
 public:
  TracingWriter(vist::server::DocumentWriter* wrapped, Tracer* tracer)
      : wrapped_(wrapped), tracer_(tracer) {}

  vist::Status Insert(std::string_view xml, uint64_t doc_id) override;
  vist::Status Delete(std::string_view xml, uint64_t doc_id) override;

 private:
  vist::server::DocumentWriter* const wrapped_;
  Tracer* const tracer_;
};

/// Page-file I/O counted and timed at the Env seam. Counts whenever
/// installed (traced runs only); read them as deltas.
struct IoCounters {
  std::atomic<uint64_t> read_calls{0};
  std::atomic<uint64_t> read_ns{0};
  std::atomic<uint64_t> write_bytes{0};
  std::atomic<uint64_t> sync_calls{0};
  std::atomic<uint64_t> sync_ns{0};
};

class TimingEnv : public vist::Env {
 public:
  explicit TimingEnv(vist::Env* base) : base_(base) {}

  vist::Result<std::unique_ptr<vist::File>> Open(
      const std::string& path, const OpenOptions& options) override;
  vist::Result<bool> FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  vist::Status DeleteFile(const std::string& path) override {
    return base_->DeleteFile(path);
  }
  vist::Status SyncDir(const std::string& dir) override;

  const IoCounters& counters() const { return counters_; }

 private:
  vist::Env* const base_;
  IoCounters counters_;
};

/// Attaches every server-side root span to the client span (`client_name`)
/// with the same key whose interval contains it, by setting its parent.
/// Returns the number of spans linked.
size_t LinkToClients(std::vector<Span>* spans, const char* client_name,
                     const char* server_name);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
