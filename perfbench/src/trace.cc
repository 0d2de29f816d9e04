#include "trace.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <string_view>

namespace perfbench {
namespace {

/// The innermost open span on this thread: the parent of the next one.
thread_local uint64_t t_current_span = 0;

uint64_t ElapsedNs(int64_t start_ns) {
  return static_cast<uint64_t>(NowNs() - start_ns);
}

class TimingFile : public vist::File {
 public:
  TimingFile(std::unique_ptr<vist::File> base, IoCounters* counters)
      : base_(std::move(base)), counters_(counters) {}

  vist::Status ReadAt(uint64_t offset, char* buf, size_t n,
                      size_t* bytes_read) override {
    const int64_t start = NowNs();
    vist::Status s = base_->ReadAt(offset, buf, n, bytes_read);
    counters_->read_ns.fetch_add(ElapsedNs(start), std::memory_order_relaxed);
    counters_->read_calls.fetch_add(1, std::memory_order_relaxed);
    return s;
  }
  vist::Status WriteAt(uint64_t offset, const char* buf, size_t n) override {
    CountWrite(n);
    return base_->WriteAt(offset, buf, n);
  }
  vist::Status Append(const char* buf, size_t n) override {
    CountWrite(n);
    return base_->Append(buf, n);
  }
  vist::Status Sync() override {
    const int64_t start = NowNs();
    vist::Status s = base_->Sync();
    counters_->sync_ns.fetch_add(ElapsedNs(start), std::memory_order_relaxed);
    counters_->sync_calls.fetch_add(1, std::memory_order_relaxed);
    return s;
  }
  vist::Status Truncate(uint64_t size) override {
    return base_->Truncate(size);
  }
  vist::Result<uint64_t> Size() override { return base_->Size(); }

 private:
  void CountWrite(size_t n) {
    counters_->write_bytes.fetch_add(n, std::memory_order_relaxed);
  }

  std::unique_ptr<vist::File> base_;
  IoCounters* const counters_;
};

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Tracer::Record(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(spans_);
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, std::string key)
    : tracer_(tracer), saved_current_(t_current_span) {
  span_.name = name;
  span_.id = tracer->NewId();
  span_.parent = t_current_span;
  span_.key = std::move(key);
  t_current_span = span_.id;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  span_.end_ns = NowNs();
  t_current_span = saved_current_;
  tracer_->Record(std::move(span_));
}

void ProfileTotals::Add(const vist::obs::QueryProfile& profile) {
  queries.fetch_add(1, std::memory_order_relaxed);
  range_scans.fetch_add(profile.range_scans, std::memory_order_relaxed);
  entries_scanned.fetch_add(profile.entries_scanned,
                            std::memory_order_relaxed);
  candidates.fetch_add(profile.candidates, std::memory_order_relaxed);
  nodes.fetch_add(profile.index_nodes_accessed, std::memory_order_relaxed);
  pool_hits.fetch_add(profile.buffer_pool_hits, std::memory_order_relaxed);
  pool_misses.fetch_add(profile.buffer_pool_misses, std::memory_order_relaxed);
}

TracingIndex::TracingIndex(vist::QueryableIndex* wrapped, Tracer* tracer,
                           Layer layer)
    : wrapped_(wrapped),
      tracer_(tracer),
      query_name_(layer == Layer::kExec ? "exec.query" : "engine.query"),
      prepare_name_(layer == Layer::kExec ? "exec.prepare" : "engine.prepare"),
      execute_name_(layer == Layer::kExec ? "exec.execute" : "engine.execute"),
      flush_name_(layer == Layer::kExec ? "exec.flush" : "engine.flush") {}

vist::Result<std::vector<uint64_t>> TracingIndex::Query(
    std::string_view path, const vist::QueryOptions& options) {
  if (!tracer_->on()) return wrapped_->Query(path, options);
  ScopedSpan span(tracer_, query_name_, std::string(path));
  return wrapped_->Query(path, options);
}

vist::Result<std::shared_ptr<const vist::QueryPlan>> TracingIndex::Prepare(
    std::string_view path, const vist::QueryOptions& options) {
  if (!tracer_->on()) return wrapped_->Prepare(path, options);
  ScopedSpan span(tracer_, prepare_name_, std::string(path));
  return wrapped_->Prepare(path, options);
}

vist::Result<std::vector<uint64_t>> TracingIndex::QueryWithPlan(
    const vist::QueryPlan& plan, const vist::QueryOptions& options) {
  if (!tracer_->on()) return wrapped_->QueryWithPlan(plan, options);
  ScopedSpan span(tracer_, execute_name_, plan.path());
  if (options.profile != nullptr) {
    return wrapped_->QueryWithPlan(plan, options);
  }
  vist::obs::QueryProfile profile;
  vist::QueryOptions profiled = options;
  profiled.profile = &profile;
  auto result = wrapped_->QueryWithPlan(plan, profiled);
  if (result.ok()) totals_.Add(profile);
  return result;
}

vist::Status TracingIndex::Flush() {
  if (!tracer_->on()) return wrapped_->Flush();
  ScopedSpan span(tracer_, flush_name_, "");
  return wrapped_->Flush();
}

vist::Status TracingWriter::Insert(std::string_view xml, uint64_t doc_id) {
  if (!tracer_->on()) return wrapped_->Insert(xml, doc_id);
  ScopedSpan span(tracer_, "engine.insert", std::to_string(doc_id));
  return wrapped_->Insert(xml, doc_id);
}

vist::Status TracingWriter::Delete(std::string_view xml, uint64_t doc_id) {
  if (!tracer_->on()) return wrapped_->Delete(xml, doc_id);
  ScopedSpan span(tracer_, "engine.delete", std::to_string(doc_id));
  return wrapped_->Delete(xml, doc_id);
}

vist::Result<std::unique_ptr<vist::File>> TimingEnv::Open(
    const std::string& path, const OpenOptions& options) {
  auto file = base_->Open(path, options);
  if (!file.ok()) return file.status();
  return std::unique_ptr<vist::File>(
      std::make_unique<TimingFile>(std::move(file).value(), &counters_));
}

vist::Status TimingEnv::SyncDir(const std::string& dir) {
  const int64_t start = NowNs();
  vist::Status s = base_->SyncDir(dir);
  counters_.sync_ns.fetch_add(ElapsedNs(start), std::memory_order_relaxed);
  counters_.sync_calls.fetch_add(1, std::memory_order_relaxed);
  return s;
}

size_t LinkToClients(std::vector<Span>* spans, const char* client_name,
                     const char* server_name) {
  // Per key, client spans in start order; each server root (taken in start
  // order) claims the earliest unclaimed client span that contains it.
  // `lo` skips clients that are claimed or ended before the current server
  // root began, so the scan stays short.
  struct Clients {
    std::vector<Span*> spans;
    std::vector<bool> claimed;
    size_t lo = 0;
  };
  std::map<std::string_view, Clients> clients;
  std::vector<Span*> servers;
  for (Span& span : *spans) {
    if (std::string_view(span.name) == client_name) {
      clients[span.key].spans.push_back(&span);
    } else if (std::string_view(span.name) == server_name &&
               span.parent == 0) {
      servers.push_back(&span);
    }
  }
  auto by_start = [](const Span* a, const Span* b) {
    return a->start_ns < b->start_ns;
  };
  for (auto& [key, list] : clients) {
    std::sort(list.spans.begin(), list.spans.end(), by_start);
    list.claimed.assign(list.spans.size(), false);
  }
  std::sort(servers.begin(), servers.end(), by_start);
  size_t linked = 0;
  for (Span* server : servers) {
    auto it = clients.find(server->key);
    if (it == clients.end()) continue;
    Clients& list = it->second;
    while (list.lo < list.spans.size() &&
           (list.claimed[list.lo] ||
            list.spans[list.lo]->end_ns < server->start_ns)) {
      ++list.lo;
    }
    for (size_t i = list.lo; i < list.spans.size() &&
                             list.spans[i]->start_ns <= server->start_ns;
         ++i) {
      if (list.claimed[i] || list.spans[i]->end_ns < server->end_ns) continue;
      list.claimed[i] = true;
      server->parent = list.spans[i]->id;
      ++linked;
      break;
    }
  }
  return linked;
}

}  // namespace perfbench
