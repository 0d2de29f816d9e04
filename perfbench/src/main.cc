// vist_perfbench: the repository benchmark (see perfbench/README.md).
//
// Drives the production serving stack that examples/vist_server.cpp builds
// -- VistServer (default ServerOptions, 2 workers) -> exec::CachingIndex ->
// VistIndex -- over loopback TCP, from closed-loop server::Client
// connections inside this process. Every answer is checked against the
// oracle (oracle.h). The last line on stdout is one JSON object:
//
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
//
// with the end-to-end metrics (--trace 0) or the per-layer metrics from the
// bench-owned decorators of trace.h (--trace 1).
//
//   vist_perfbench --workload dblp_query --seed 1 --seconds 10 --trace 0
//                  --work-dir DIR [--scale 1] [--span-file FILE]

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "exec/caching_index.h"
#include "obs/metrics.h"
#include "seq/sequence.h"
#include "server/client.h"
#include "server/server.h"
#include "trace.h"
#include "vist/vist_index.h"
#include "workload.h"

namespace perfbench {
namespace {

using vist::server::Client;

/// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 3;
/// The flush policy: the writer sends FLUSH after every this many writes.
constexpr int kFlushEvery = 64;
/// xmark_churn: live churn documents in the sliding window.
constexpr size_t kChurnWindow = 256;
/// Read-only workloads: the write probe's writes and its window of live
/// documents, and the share of --seconds the read slices take (the write
/// slices take about the rest).
constexpr int kProbeWrites = 2000;
constexpr size_t kProbeWindow = 64;
constexpr double kReadShare = 0.85;
/// The measured time is cut into this many windows. On the read-only
/// workloads each window is a read slice followed by a write slice; on
/// xmark_churn readers and writer run through all of them. write_qps is the
/// median of the per-window rates, so a stall of the host's I/O moves one
/// window, not the result. query_qps is the total over all windows: query
/// costs vary by shape and value, so a window's rate carries the luck of
/// its draws, which the total averages out.
constexpr int kWindows = 5;
/// Churn inserts per second the write stream is sized for (about three
/// times the rate measured on the development host).
constexpr double kChurnDocsPerSecond = 500;
/// Query strings per reader (the order wraps when a run sends more).
constexpr double kRequestsPerReaderSecond = 300;
/// Query strings checked again after the run quiesces.
constexpr size_t kFinalCheckCases = 32;
/// A traced run alternates tracing on and off in slices this long.
constexpr int64_t kTraceSliceNs = 200'000'000;

/// Registry counters read as deltas around the measured windows.
constexpr const char* kRegistryCounters[] = {
    "server.frames",
    "server.batches",
    "cache.result.hits",
    "cache.result.misses",
    "cache.plan.hits",
    "cache.plan.misses",
    "cache.result.invalidated_entries",
    "storage.buffer_pool.evictions",
    "storage.buffer_pool.dirty_writebacks",
    "storage.btree.pages_shadowed",
    "vist.insert.underflow_runs",
    "client.retries",
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double scale = 1.0;
  std::string work_dir;
  std::string span_file;
};

[[noreturn]] void Fail(const std::string& what) {
  fprintf(stderr, "perfbench: %s\n", what.c_str());
  fflush(stderr);
  std::_Exit(2);
}

void CheckOk(const vist::Status& status, const std::string& what) {
  if (!status.ok()) Fail(what + ": " + status.ToString());
}

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc % 2 == 0) return false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::string(value) == "1";
    } else if (flag == "--scale") {
      args->scale = std::atof(value);
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--span-file") {
      args->span_file = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->work_dir.empty() &&
         args->seconds > 0 && args->scale > 0;
}

/// Nearest-rank percentile; 0 for no samples.
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double Ratio(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0;
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

// ---------------------------------------------------------------------------
// The serving stack.

struct Stack {
  // Declaration order is construction order; members are destroyed in
  // reverse, so the server stops before anything it serves goes away and
  // the Env outlives the index.
  std::unique_ptr<TimingEnv> env;
  std::unique_ptr<vist::VistIndex> index;
  std::unique_ptr<TracingIndex> engine_tap;
  std::unique_ptr<vist::exec::CachingIndex> cache;
  std::unique_ptr<TracingIndex> exec_tap;
  std::unique_ptr<vist::server::VistIndexWriter> writer;
  std::unique_ptr<TracingWriter> writer_tap;
  std::unique_ptr<vist::server::VistServer> server;
  uint64_t index_pages = 0;
  size_t pool_pages = 0;
};

/// Creates the index, bulk-loads the corpus, flushes, and starts the
/// server; returns the seconds taken. `tracer` non-null installs the
/// decorators.
double SetUp(const WorkloadSpec& spec, const Inputs& in, const std::string& dir,
             Tracer* tracer, Stack* s) {
  const int64_t start = NowNs();
  vist::VistOptions options;
  if (tracer != nullptr) {
    s->env = std::make_unique<TimingEnv>(vist::Env::Default());
    options.env = s->env.get();
  }
  auto created = vist::VistIndex::Create(dir, options);
  CheckOk(created.status(), "create index");
  s->index = std::move(created).value();
  {
    std::vector<std::pair<uint64_t, vist::Sequence>> sequences;
    sequences.reserve(in.corpus.size());
    for (const Doc& doc : in.corpus) {
      sequences.emplace_back(
          doc.id, vist::BuildSequence(*doc.tree.root(), s->index->symbols()));
    }
    CheckOk(s->index->BulkLoadSequences(sequences), "bulk load");
  }
  CheckOk(s->index->Flush(), "flush");
  auto stats = s->index->Stats();
  CheckOk(stats.status(), "stats");
  s->index_pages = stats->size_bytes / options.page_size;
  s->pool_pages = options.buffer_pool_pages;
  if (spec.pool_divisor > 0) {
    // The pool is sized from the loaded index, so the index is reopened
    // with it (the pool size is a runtime option).
    s->index.reset();
    s->pool_pages = std::max<size_t>(
        64, s->index_pages / static_cast<uint64_t>(spec.pool_divisor));
    options.buffer_pool_pages = s->pool_pages;
    auto opened = vist::VistIndex::Open(dir, options);
    CheckOk(opened.status(), "reopen index");
    s->index = std::move(opened).value();
  }

  vist::QueryableIndex* engine = s->index.get();
  if (tracer != nullptr) {
    s->engine_tap = std::make_unique<TracingIndex>(
        engine, tracer, TracingIndex::Layer::kEngine);
    engine = s->engine_tap.get();
  }
  s->cache = std::make_unique<vist::exec::CachingIndex>(engine);
  vist::QueryableIndex* front = s->cache.get();
  if (tracer != nullptr) {
    s->exec_tap = std::make_unique<TracingIndex>(
        front, tracer, TracingIndex::Layer::kExec);
    front = s->exec_tap.get();
  }
  s->writer = std::make_unique<vist::server::VistIndexWriter>(s->index.get());
  vist::server::DocumentWriter* writer = s->writer.get();
  if (tracer != nullptr) {
    s->writer_tap = std::make_unique<TracingWriter>(writer, tracer);
    writer = s->writer_tap.get();
  }
  s->server = std::make_unique<vist::server::VistServer>(
      front, writer, vist::server::ServerOptions{});
  CheckOk(s->server->Start(), "start server");
  return Seconds(NowNs() - start);
}

std::unique_ptr<Client> Connect(uint16_t port) {
  vist::server::ClientOptions options;
  // Every failure surfaces and is counted; a retry would hide it.
  options.max_attempts = 1;
  auto client = Client::Connect("127.0.0.1", port, options);
  CheckOk(client.status(), "connect");
  return std::move(client).value();
}

// ---------------------------------------------------------------------------
// Load generation and answer checking.

class Checker {
 public:
  void Wrong(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    if (++count_ <= 5) fprintf(stderr, "perfbench: WRONG: %s\n", what.c_str());
  }
  bool ok() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_ == 0;
  }

 private:
  mutable std::mutex mu_;
  uint64_t count_ = 0;
};

/// The corpus part of `got` must equal the oracle's; the write-stream part
/// must be a subset of the oracle's stream matches, or, when `live` is
/// given, exactly those that are live.
bool AnswerMatches(const QueryCase& c, const std::vector<uint64_t>& got,
                   uint64_t corpus_size,
                   const std::unordered_set<uint64_t>* live) {
  const auto split = std::upper_bound(got.begin(), got.end(), corpus_size);
  if (!std::is_sorted(got.begin(), got.end()) ||
      !std::equal(got.begin(), split, c.corpus_ids.begin(),
                  c.corpus_ids.end())) {
    return false;
  }
  if (live == nullptr) {
    return std::includes(c.stream_ids.begin(), c.stream_ids.end(), split,
                         got.end());
  }
  std::vector<uint64_t> expected;
  for (uint64_t id : c.stream_ids) {
    if (live->count(id) != 0) expected.push_back(id);
  }
  return std::equal(split, got.end(), expected.begin(), expected.end());
}

struct Phase {
  std::atomic<bool> stop{false};
  std::atomic<bool> measuring{false};
};

/// What one load thread saw. Latencies are kept only for requests sent
/// while the phase was measuring.
struct LoadStats {
  std::vector<double> query_ms;
  std::vector<double> traced_query_ms;  // sent while tracing was on
  std::vector<double> untraced_query_ms;
  std::vector<double> write_ms;  // INSERT and DELETE
  std::vector<double> flush_ms;
  // When each successful INSERT/DELETE ended, measured or not.
  std::vector<int64_t> write_end_ns;
  uint64_t attempted = 0;  // every request sent, measured or not
  uint64_t failed = 0;
  uint64_t inserted_bytes = 0;  // XML bytes of measured INSERTs

  void Merge(const LoadStats& o) {
    auto append = [](auto* to, const auto& v) {
      to->insert(to->end(), v.begin(), v.end());
    };
    append(&query_ms, o.query_ms);
    append(&traced_query_ms, o.traced_query_ms);
    append(&untraced_query_ms, o.untraced_query_ms);
    append(&write_ms, o.write_ms);
    append(&flush_ms, o.flush_ms);
    append(&write_end_ns, o.write_end_ns);
    attempted += o.attempted;
    failed += o.failed;
    inserted_bytes += o.inserted_bytes;
  }
};

/// Runs `call` as one client request: timed, and inside a client span when
/// tracing is on. Returns the round trip in ms.
template <typename Call>
double TimedRequest(Tracer* tracer, const char* span_name,
                    const std::string& key, Call&& call) {
  std::optional<ScopedSpan> span;
  if (tracer != nullptr && tracer->on()) span.emplace(tracer, span_name, key);
  const int64_t start = NowNs();
  call();
  const int64_t end = NowNs();
  span.reset();
  return static_cast<double>(end - start) / 1e6;
}

/// One reader connection. Its place in the request order carries over from
/// one read slice to the next.
struct Reader {
  Reader(uint16_t port, uint64_t seed, int index)
      : client(Connect(port)),
        rng(seed * 0x2545F4914F6CDD1DULL + static_cast<uint64_t>(index)),
        index(index) {}

  std::unique_ptr<Client> client;
  vist::Random rng;
  int index;
  uint64_t position = 0;
  LoadStats stats;
};

void ReaderLoop(const Inputs& in, const Phase& phase, Tracer* tracer,
                Checker* checker, Reader* reader) {
  LoadStats* out = &reader->stats;
  while (!phase.stop.load(std::memory_order_acquire)) {
    const QueryCase& c = in.cases[in.NextCase(
        reader->index, &reader->position, &reader->rng)];
    const bool measuring = phase.measuring.load(std::memory_order_acquire);
    const bool traced = tracer != nullptr && tracer->on();
    std::optional<vist::Result<std::vector<uint64_t>>> ids;
    const double ms =
        TimedRequest(tracer, "client.query", c.path,
                     [&] { ids.emplace(reader->client->Query(c.path)); });
    ++out->attempted;
    if (!ids->ok()) {
      ++out->failed;
      continue;
    }
    if (!AnswerMatches(c, **ids, in.corpus_size(), nullptr)) {
      checker->Wrong("answer to " + c.path);
    }
    if (!measuring) continue;
    out->query_ms.push_back(ms);
    if (tracer != nullptr) {
      (traced ? out->traced_query_ms : out->untraced_query_ms).push_back(ms);
    }
  }
}

/// Which write-stream documents are live, oldest first, as positions in the
/// stream (taken modulo its size).
struct WriteState {
  std::deque<size_t> live;
  size_t next = 0;
  uint64_t writes = 0;  // all writes so far: the flush cadence
};

/// One writer connection keeping a sliding window of `window` live
/// write-stream documents: it inserts while fewer are live, else deletes the
/// oldest. Sends FLUSH after every kFlushEvery writes, counted across calls.
/// Stops when the phase stops or after `max_writes` writes (0: no limit).
void WriterLoop(Client* client, const Inputs& in, const Phase& phase,
                size_t window, uint64_t max_writes, Tracer* tracer,
                WriteState* state, LoadStats* out) {
  uint64_t writes = 0;
  while (!phase.stop.load(std::memory_order_acquire) &&
         (max_writes == 0 || writes < max_writes)) {
    const bool insert = state->live.size() < window;
    // A writer faster than the stream was sized for reuses documents deleted
    // long before (the stream is far longer than the window).
    const Doc& doc = in.stream[(insert ? state->next : state->live.front()) %
                               in.stream.size()];
    const bool measuring = phase.measuring.load(std::memory_order_acquire);
    vist::Status status;
    const double ms = TimedRequest(
        tracer, insert ? "client.insert" : "client.delete",
        std::to_string(doc.id), [&] {
          status = insert ? client->Insert(doc.xml, doc.id)
                          : client->Delete(doc.xml, doc.id);
        });
    ++out->attempted;
    ++writes;
    ++state->writes;
    if (!status.ok()) {
      ++out->failed;
      continue;
    }
    out->write_end_ns.push_back(NowNs());
    if (insert) {
      state->live.push_back(state->next++);
    } else {
      state->live.pop_front();
    }
    if (measuring) {
      out->write_ms.push_back(ms);
      if (insert) out->inserted_bytes += doc.xml.size();
    }
    if (state->writes % kFlushEvery == 0) {
      vist::Status flushed;
      const double flush_ms = TimedRequest(tracer, "client.flush", "", [&] {
        flushed = client->Flush();
      });
      ++out->attempted;
      if (!flushed.ok()) {
        ++out->failed;
      } else if (measuring) {
        out->flush_ms.push_back(flush_ms);
      }
    }
  }
}

/// The quiesced index, as the final check saw it.
struct FinalState {
  uint64_t live_docs = 0;
  uint64_t live_bytes = 0;  // XML bytes of the live documents
  size_t checked_queries = 0;
  vist::IndexStats stats;
  uint64_t integrity_nodes = 0;
};

/// After the run quiesces: flushes, then requires the answers to a spread of
/// the query strings to equal the oracle over the final live set, STATS to
/// count the live documents, and CheckIntegrity to be clean.
FinalState CheckQuiesced(uint16_t port, const Inputs& in,
                         const WriteState& writes, vist::VistIndex* index,
                         Checker* checker) {
  FinalState state;
  std::unique_ptr<Client> client = Connect(port);
  CheckOk(client->Flush(), "final flush");
  std::unordered_set<uint64_t> live;
  for (const Doc& doc : in.corpus) state.live_bytes += doc.xml.size();
  for (size_t i : writes.live) {
    const Doc& doc = in.stream[i % in.stream.size()];
    live.insert(doc.id);
    state.live_bytes += doc.xml.size();
  }
  state.live_docs = in.corpus.size() + live.size();
  const size_t stride = std::max<size_t>(1, in.cases.size() / kFinalCheckCases);
  for (size_t i = 0; i < in.cases.size(); i += stride) {
    const QueryCase& c = in.cases[i];
    auto ids = client->Query(c.path);
    CheckOk(ids.status(), "final query " + c.path);
    if (!AnswerMatches(c, *ids, in.corpus_size(), &live)) {
      checker->Wrong("final answer to " + c.path);
    }
    ++state.checked_queries;
  }
  auto stats = client->Stats();
  CheckOk(stats.status(), "stats");
  state.stats = stats->index;
  if (state.stats.num_documents != state.live_docs) {
    checker->Wrong("STATS num_documents " +
                   std::to_string(state.stats.num_documents) +
                   ", expected " + std::to_string(state.live_docs));
  }
  auto integrity = index->CheckIntegrity();
  CheckOk(integrity.status(), "check integrity");
  for (const std::string& problem : integrity->problems) {
    checker->Wrong("integrity: " + problem);
  }
  state.integrity_nodes = integrity->nodes;
  return state;
}

// ---------------------------------------------------------------------------
// Counters read as deltas over the measured windows.

using Counts = std::map<std::string, uint64_t>;

Counts ReadCounts(const Stack& s) {
  Counts counts;
  for (const char* name : kRegistryCounters) {
    counts[name] = vist::obs::GetCounter(name).value();
  }
  if (s.env != nullptr) {
    const IoCounters& io = s.env->counters();
    counts["io.read_calls"] = io.read_calls.load();
    counts["io.read_ns"] = io.read_ns.load();
    counts["io.write_bytes"] = io.write_bytes.load();
    counts["io.sync_calls"] = io.sync_calls.load();
    counts["io.sync_ns"] = io.sync_ns.load();
  }
  if (s.engine_tap != nullptr) {
    const ProfileTotals& p = s.engine_tap->profile_totals();
    counts["profile.queries"] = p.queries.load();
    counts["profile.range_scans"] = p.range_scans.load();
    counts["profile.entries_scanned"] = p.entries_scanned.load();
    counts["profile.candidates"] = p.candidates.load();
    counts["profile.nodes"] = p.nodes.load();
    counts["profile.pool_hits"] = p.pool_hits.load();
    counts["profile.pool_misses"] = p.pool_misses.load();
  }
  return counts;
}

/// Adds after - before into `total`.
void AddDelta(const Counts& before, const Counts& after, Counts* total) {
  for (const auto& [name, value] : after) {
    (*total)[name] += value - before.at(name);
  }
}

double D(const Counts& counts, const std::string& name) {
  auto it = counts.find(name);
  return it == counts.end() ? 0 : static_cast<double>(it->second);
}

// ---------------------------------------------------------------------------
// Phases and windows.

/// A measured window [start_ns, end_ns).
struct Window {
  int64_t start_ns;
  int64_t end_ns;
  double seconds() const { return Seconds(end_ns - start_ns); }
};

/// Starts the load threads, lets them run unmeasured for `warmup_s`, then
/// measured for `seconds`, then stops and joins them. `start(phase)` starts
/// the threads and returns them. A traced run traces the measured part,
/// switching tracing off every other kTraceSliceNs when `alternate`. The
/// counter deltas over the measured part are added to each of `deltas`.
template <typename Start>
Window RunPhase(const Stack& stack, double warmup_s, double seconds,
                Tracer* tracer, bool alternate,
                std::initializer_list<Counts*> deltas, Start&& start) {
  Phase phase;
  std::vector<std::thread> threads = start(phase);
  std::this_thread::sleep_for(std::chrono::duration<double>(warmup_s));
  const Counts before = ReadCounts(stack);
  const int64_t begin = NowNs();
  phase.measuring.store(true, std::memory_order_release);
  const int64_t end = begin + static_cast<int64_t>(seconds * 1e9);
  for (bool on = true; NowNs() < end; on = !on) {
    if (tracer != nullptr) tracer->set_on(on || !alternate);
    const int64_t slice = alternate ? kTraceSliceNs : end - NowNs();
    std::this_thread::sleep_for(std::chrono::nanoseconds(
        std::max<int64_t>(0, std::min(slice, end - NowNs()))));
  }
  const int64_t stopped = NowNs();
  phase.stop.store(true, std::memory_order_release);
  for (auto& thread : threads) thread.join();
  if (tracer != nullptr) tracer->set_on(false);
  const Counts after = ReadCounts(stack);
  for (Counts* delta : deltas) AddDelta(before, after, delta);
  return {begin, stopped};
}

/// The median over `windows` of the events per second that ended in each.
double MedianRate(std::vector<int64_t> end_ns,
                  const std::vector<Window>& windows) {
  std::sort(end_ns.begin(), end_ns.end());
  std::vector<double> rates;
  for (const Window& w : windows) {
    const auto n =
        std::lower_bound(end_ns.begin(), end_ns.end(), w.end_ns) -
        std::lower_bound(end_ns.begin(), end_ns.end(), w.start_ns);
    rates.push_back(Ratio(static_cast<double>(n), w.seconds()));
  }
  return Percentile(std::move(rates), 0.5);
}

double TotalSeconds(const std::vector<Window>& windows) {
  double total = 0;
  for (const Window& w : windows) total += w.seconds();
  return total;
}

/// Sends every query string once, unmeasured, and checks the answers: fills
/// the result tier of a hot workload. One connection: two concurrent engine
/// queries take longer in total than the same two in turn.
void Warm(Client* client, const Inputs& in, Checker* checker) {
  for (const QueryCase& c : in.cases) {
    auto ids = client->Query(c.path);
    CheckOk(ids.status(), "warm " + c.path);
    if (!AnswerMatches(c, *ids, in.corpus_size(), nullptr)) {
      checker->Wrong("answer to " + c.path);
    }
  }
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Number(double value) {
  if (!std::isfinite(value)) value = 0;
  char buf[64];
  snprintf(buf, sizeof(buf), "%.10g", value);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  return out + "}";
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) {
    fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  fprintf(f, "name\tid\tparent\tstart_ns\tend_ns\tkey\n");
  for (const Span& s : spans) {
    fprintf(f, "%s\t%llu\t%llu\t%lld\t%lld\t%s\n", s.name,
            static_cast<unsigned long long>(s.id),
            static_cast<unsigned long long>(s.parent),
            static_cast<long long>(s.start_ns),
            static_cast<long long>(s.end_ns), s.key.c_str());
  }
  fclose(f);
}

/// The per-layer metrics of a traced run, from its spans and the counter
/// deltas. `read` covers the windows with readers; `all` adds the write
/// slices of the read-only workloads.
std::vector<Metric> PerLayerMetrics(std::vector<Span>* spans,
                                    const LoadStats& load, const Counts& read,
                                    const Counts& all, uint64_t writes,
                                    std::map<std::string, double>* bases) {
  LinkToClients(spans, "client.query", "exec.query");
  LinkToClients(spans, "client.insert", "engine.insert");
  LinkToClients(spans, "client.delete", "engine.delete");
  LinkToClients(spans, "client.flush", "exec.flush");
  std::unordered_map<uint64_t, const Span*> by_id;
  std::unordered_map<uint64_t, double> child_ms;
  std::map<std::string, std::vector<double>> ms_by_name;
  for (const Span& s : *spans) {
    by_id[s.id] = &s;
    if (s.parent != 0) child_ms[s.parent] += s.ms();
    ms_by_name[s.name].push_back(s.ms());
  }
  std::vector<double> server_self, exec_self;
  for (const Span& s : *spans) {
    if (std::string_view(s.name) != "exec.query") continue;
    exec_self.push_back(s.ms() - child_ms[s.id]);
    if (s.parent != 0) server_self.push_back(by_id.at(s.parent)->ms() - s.ms());
  }
  auto p = [&](const char* name, double q) {
    return Percentile(ms_by_name[name], q);
  };
  const double queries = D(all, "profile.queries");
  const double lookups =
      D(read, "cache.result.hits") + D(read, "cache.result.misses");
  const double plan_lookups =
      D(read, "cache.plan.hits") + D(read, "cache.plan.misses");
  const double pool = D(all, "profile.pool_hits") + D(all, "profile.pool_misses");
  (*bases)["linked_query_spans"] = static_cast<double>(server_self.size());
  (*bases)["exec_query_spans"] = static_cast<double>(exec_self.size());
  (*bases)["engine_execute_spans"] =
      static_cast<double>(ms_by_name["engine.execute"].size());
  (*bases)["profiled_queries"] = queries;
  (*bases)["result_lookups"] = lookups;
  (*bases)["plan_lookups"] = plan_lookups;
  (*bases)["pool_requests"] = pool;
  (*bases)["measured_writes"] = static_cast<double>(writes);
  (*bases)["inserted_doc_bytes"] = static_cast<double>(load.inserted_bytes);
  (*bases)["traced_query_samples"] =
      static_cast<double>(load.traced_query_ms.size());
  (*bases)["untraced_query_samples"] =
      static_cast<double>(load.untraced_query_ms.size());
  const double w = static_cast<double>(writes);
  return {
      {"server.self_p50_ms", Percentile(server_self, 0.5), "ms"},
      {"server.frames_per_batch",
       Ratio(D(read, "server.frames"), D(read, "server.batches")),
       "frames/batch"},
      {"exec.self_p50_ms", Percentile(exec_self, 0.5), "ms"},
      {"exec.result_hit_rate", Ratio(D(read, "cache.result.hits"), lookups),
       "ratio"},
      {"exec.plan_hit_rate", Ratio(D(read, "cache.plan.hits"), plan_lookups),
       "ratio"},
      {"exec.invalidated_per_write",
       Ratio(D(all, "cache.result.invalidated_entries"), w), "count/write"},
      {"engine.prepare_p50_ms", p("engine.prepare", 0.5), "ms"},
      {"engine.prepare_calls", D(read, "cache.plan.misses"), "count"},
      {"engine.execute_p50_ms", p("engine.execute", 0.5), "ms"},
      {"engine.execute_p99_ms", p("engine.execute", 0.99), "ms"},
      {"vist.range_scans_per_query", Ratio(D(all, "profile.range_scans"), queries),
       "count/query"},
      {"vist.entries_scanned_per_query",
       Ratio(D(all, "profile.entries_scanned"), queries), "count/query"},
      {"vist.candidates_per_query", Ratio(D(all, "profile.candidates"), queries),
       "count/query"},
      {"storage.nodes_per_query", Ratio(D(all, "profile.nodes"), queries),
       "count/query"},
      {"storage.pool_hit_rate",
       pool > 0 ? D(all, "profile.pool_hits") / pool : 1.0, "ratio"},
      {"storage.evictions_per_write",
       Ratio(D(all, "storage.buffer_pool.evictions"), w), "count/write"},
      {"storage.dirty_writebacks_per_write",
       Ratio(D(all, "storage.buffer_pool.dirty_writebacks"), w), "count/write"},
      {"storage.pages_shadowed_per_write",
       Ratio(D(all, "storage.btree.pages_shadowed"), w), "count/write"},
      {"io.read_calls", D(all, "io.read_calls"), "count"},
      {"io.read_ms", D(all, "io.read_ns") / 1e6, "ms"},
      {"io.write_bytes_per_doc_byte",
       Ratio(D(all, "io.write_bytes"), static_cast<double>(load.inserted_bytes)),
       "B/B"},
      {"io.sync_calls", D(all, "io.sync_calls"), "count"},
      {"io.sync_ms", D(all, "io.sync_ns") / 1e6, "ms"},
      {"engine.insert_p50_ms", p("engine.insert", 0.5), "ms"},
      {"engine.delete_p50_ms", p("engine.delete", 0.5), "ms"},
      {"engine.flush_p50_ms", p("engine.flush", 0.5), "ms"},
      {"vist.underflow_runs", D(all, "vist.insert.underflow_runs"), "count"},
      {"trace.query_p50_ms", Percentile(load.traced_query_ms, 0.5), "ms"},
      {"trace.overhead_p50",
       Ratio(Percentile(load.traced_query_ms, 0.5),
             Percentile(load.untraced_query_ms, 0.5)) - 1.0,
       "ratio"},
  };
}

// ---------------------------------------------------------------------------

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) Fail("unknown workload " + args.workload);
  const bool probe = !spec->churn;
  const auto requests_per_reader = static_cast<size_t>(
      std::max(64.0, args.seconds * kRequestsPerReaderSecond));
  const size_t stream_docs =
      probe ? kProbeWrites
            : static_cast<size_t>(args.seconds * kChurnDocsPerSecond) +
                  kChurnWindow;
  const int64_t inputs_start = NowNs();
  Inputs in;
  CheckOk(MakeInputs(*spec, args.seed, args.scale, requests_per_reader,
                     stream_docs, &in),
          "make inputs");
  const double inputs_s = Seconds(NowNs() - inputs_start);

  std::filesystem::create_directories(args.work_dir);
  const std::string index_dir = args.work_dir + "/index";
  Tracer tracer;
  Tracer* tap = args.trace ? &tracer : nullptr;
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  for (int k = 0; k < kSetupRepeats; ++k) {
    stack.reset();
    std::filesystem::remove_all(index_dir);
    stack = std::make_unique<Stack>();
    setup_s.push_back(SetUp(*spec, in, index_dir, tap, stack.get()));
  }
  const uint16_t port = stack->server->port();
  Checker checker;

  // Every connection is opened once and kept for the whole run.
  std::vector<std::unique_ptr<Reader>> readers;
  for (int r = 0; r < spec->readers; ++r) {
    readers.push_back(std::make_unique<Reader>(port, args.seed, r));
  }
  std::unique_ptr<Client> writer = Connect(port);
  LoadStats writer_stats;
  WriteState write_state;
  auto start_readers = [&](const Phase& phase) {
    std::vector<std::thread> threads;
    for (auto& reader : readers) {
      threads.emplace_back(ReaderLoop, std::cref(in), std::cref(phase), tap,
                           &checker, reader.get());
    }
    return threads;
  };

  const double warmup_s = std::min(0.5, 0.1 * args.seconds);
  std::vector<Window> read_windows;
  std::vector<Window> write_windows;
  Counts read_delta;
  Counts all_delta;
  double warm_s = 0;
  if (spec->churn) {
    // Readers and writer run together through all the windows.
    const Window measured = RunPhase(
        *stack, warmup_s, args.seconds, tap, /*alternate=*/true,
        {&read_delta, &all_delta}, [&](const Phase& phase) {
          std::vector<std::thread> threads = start_readers(phase);
          threads.emplace_back(WriterLoop, writer.get(), std::cref(in),
                               std::cref(phase), kChurnWindow, uint64_t{0},
                               tap, &write_state, &writer_stats);
          return threads;
        });
    const auto at = [&](int k) {
      return measured.start_ns +
             (measured.end_ns - measured.start_ns) * k / kWindows;
    };
    for (int k = 0; k < kWindows; ++k) {
      read_windows.push_back({at(k), at(k + 1)});
    }
    write_windows = read_windows;
  } else {
    // Each window: a write slice of a fixed number of writes with the
    // readers idle, then a read slice. The writes come first so that every
    // read slice sees an index that has taken dynamic inserts (they leave
    // the B+ tree with more nodes per range scan than the bulk load), and
    // their count is fixed, not their time, so every run's read slices see
    // the same index. A hot workload's result tier is warmed after each
    // write slice (the writes bumped the epoch); the warming is not
    // measured.
    for (int k = 0; k < kWindows; ++k) {
      const Counts before = ReadCounts(*stack);
      if (tap != nullptr) tap->set_on(true);
      Phase phase;
      phase.measuring.store(true);
      const int64_t start = NowNs();
      WriterLoop(writer.get(), in, phase, kProbeWindow, kProbeWrites / kWindows,
                 tap, &write_state, &writer_stats);
      write_windows.push_back({start, NowNs()});
      if (tap != nullptr) tap->set_on(false);
      AddDelta(before, ReadCounts(*stack), &all_delta);
      if (spec->hot) {
        const int64_t warm_start = NowNs();
        Warm(writer.get(), in, &checker);
        warm_s += Seconds(NowNs() - warm_start);
      }
      read_windows.push_back(RunPhase(
          *stack, k == 0 ? warmup_s : 0, args.seconds * kReadShare / kWindows,
          tap, /*alternate=*/true, {&read_delta, &all_delta}, start_readers));
    }
    // Drain the window, unmeasured, so the final live set is the corpus.
    Phase drain;
    WriterLoop(writer.get(), in, drain, 0, write_state.live.size(), tap,
               &write_state, &writer_stats);
  }
  LoadStats load;
  for (const auto& reader : readers) load.Merge(reader->stats);
  load.Merge(writer_stats);
  const double read_s = TotalSeconds(read_windows);
  const double write_s = TotalSeconds(write_windows);
  const uint64_t writes = load.write_ms.size();

  const int64_t check_start = NowNs();
  const FinalState final_state =
      CheckQuiesced(port, in, write_state, stack->index.get(), &checker);
  const double check_s = Seconds(NowNs() - check_start);

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  const double space_amp =
      Ratio(static_cast<double>(final_state.stats.size_bytes),
            static_cast<double>(final_state.live_bytes));

  std::map<std::string, double> bases = {
      {"hardware_threads", std::thread::hardware_concurrency()},
      {"corpus_records", static_cast<double>(in.corpus.size())},
      {"index_pages", static_cast<double>(stack->index_pages)},
      {"pool_pages", static_cast<double>(stack->pool_pages)},
      {"reader_connections", static_cast<double>(spec->readers)},
      {"writer_connections", 1},
      {"flush_every_writes", kFlushEvery},
      {"distinct_query_strings", static_cast<double>(in.cases.size())},
      {"query_samples", static_cast<double>(load.query_ms.size())},
      {"write_samples", static_cast<double>(load.write_ms.size())},
      {"flush_samples", static_cast<double>(load.flush_ms.size())},
      {"windows", kWindows},
      {"read_seconds", read_s},
      {"write_seconds", write_s},
      {"failed_frac", Ratio(static_cast<double>(load.failed),
                            static_cast<double>(load.attempted))},
      {"attempted", static_cast<double>(load.attempted)},
      {"result_hit_rate",
       Ratio(D(read_delta, "cache.result.hits"),
             D(read_delta, "cache.result.hits") +
                 D(read_delta, "cache.result.misses"))},
      {"client_retries", D(all_delta, "client.retries")},
      {"space_bytes", static_cast<double>(final_state.stats.size_bytes)},
      {"live_xml_bytes", static_cast<double>(final_state.live_bytes)},
      {"final_live_docs", static_cast<double>(final_state.live_docs)},
      {"final_checked_queries",
       static_cast<double>(final_state.checked_queries)},
      {"integrity_nodes", static_cast<double>(final_state.integrity_nodes)},
      {"inputs_seconds", inputs_s},
      {"final_check_seconds", check_s},
      {"warm_seconds", warm_s},
  };
  for (size_t k = 0; k < setup_s.size(); ++k) {
    bases["setup_s_" + std::to_string(k)] = setup_s[k];
  }

  // The write tail counts FLUSH round trips too. FLUSH is 1 in 65
  // write-path requests, so the p99 falls inside the flush band. Over
  // INSERT/DELETE alone the write probe's latencies are so narrow that
  // scheduler hiccups set their top 1%: on a 4-core VM the quartile spread
  // of that p99 over ten seeds exceeded a quarter of its median.
  std::vector<double> write_path_ms = load.write_ms;
  write_path_ms.insert(write_path_ms.end(), load.flush_ms.begin(),
                       load.flush_ms.end());
  std::vector<Metric> metrics;
  if (args.trace) {
    std::vector<Span> spans = tracer.Take();
    metrics = PerLayerMetrics(&spans, load, read_delta, all_delta, writes,
                              &bases);
    if (!args.span_file.empty()) WriteSpans(args.span_file, spans);
  } else {
    metrics = {
        {"setup_s", Percentile(setup_s, 0.5), "s"},
        {"query_qps", Ratio(static_cast<double>(load.query_ms.size()), read_s),
         "1/s"},
        {"query_p50_ms", Percentile(load.query_ms, 0.5), "ms"},
        {"query_p99_ms", Percentile(load.query_ms, 0.99), "ms"},
        {"write_qps", MedianRate(load.write_end_ns, write_windows), "1/s"},
        {"write_p50_ms", Percentile(load.write_ms, 0.5), "ms"},
        {"write_p99_ms", Percentile(write_path_ms, 0.99), "ms"},
        {"flush_p50_ms", Percentile(load.flush_ms, 0.5), "ms"},
        {"space_amp", space_amp, "ratio"},
        {"peak_rss_mb", peak_rss_mb, "MiB"},
    };
  }

  std::string detail = "{\"workload\": \"" + args.workload +
                       "\", \"seed\": " + std::to_string(args.seed) +
                       ", \"trace\": " + (args.trace ? "1" : "0");
  for (const auto& [name, value] : bases) {
    detail += ", \"" + name + "\": " + Number(value);
  }
  printf("%s}\n", detail.c_str());
  const bool correct = checker.ok();
  printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
         "\"metrics\": %s}\n",
         correct ? "true" : "false",
         static_cast<unsigned long long>(load.attempted),
         static_cast<unsigned long long>(load.failed),
         MetricsJson(metrics).c_str());
  fflush(stdout);

  readers.clear();
  writer.reset();
  stack.reset();
  std::filesystem::remove_all(index_dir);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    fprintf(stderr,
            "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
            "--work-dir DIR [--scale F] [--span-file FILE]\n",
            argv[0]);
    return 2;
  }
  return perfbench::Run(args);
}
