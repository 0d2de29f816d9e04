// Parallel query serving: queries/sec at 1/2/4/8 threads for ViST and
// both baselines over the DBLP-like corpus (Table 3 queries Q1-Q5).
//
// Each cell runs T threads against one shared index, every thread running
// a fixed kQueriesPerThread queries of the mix from a different offset;
// qps is the cell's queries over its wall time, from the first thread's
// start to the last thread's end. A fixed count gives every cell enough
// queries to time, and every thread the same work. The standard per-query
// cost columns (EXPERIMENTS.md) come from a profiled single-threaded pass
// over the same queries. Results print as a table and are written to
// BENCH_throughput.json in the working directory.
//
// Scaling expectations: speedup_vs_1 approaches the smaller of T and the
// machine's hardware_threads (recorded in the JSON) — on a single-core
// host every cell lands near 1.0x by construction, since the read path
// shares one CPU no matter how many threads contend for it.

#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "obs/query_profile.h"

namespace vist {
namespace bench {
namespace {

// Table 3's DBLP queries, Q1-Q5 (Q6-Q8 are XMARK; one corpus is enough
// here — the lock shape under test does not depend on the dataset).
const std::vector<QuerySpec> kQueries = [] {
  std::vector<QuerySpec> dblp;
  for (const QuerySpec& query : kTable3Queries) {
    if (query.dblp) dblp.push_back(query);
  }
  return dblp;
}();
constexpr int kThreadCounts[] = {1, 2, 4, 8};
// A multiple of the mix size, so each thread runs every query equally often.
constexpr int kQueriesPerThread = 250;

Engines BuildEngines(int records) {
  Engines engines = CreateEngines("throughput");
  LoadEngines(&engines, /*dblp=*/true, records);
  CheckOk(engines.vist->Flush(), "vist flush");
  return engines;
}

/// One engine's query entry point, type-erased for the harness.
using QueryFn = std::function<Result<std::vector<uint64_t>>(
    const char* path, obs::QueryProfile* profile)>;

struct QueryCosts {
  const QuerySpec* spec = nullptr;
  size_t hits = 0;
  obs::QueryProfile profile;
};

struct Cell {
  int threads = 0;
  uint64_t total_queries = 0;
  double elapsed_ms = 0;
  double qps = 0;
};

struct EngineReport {
  const char* name;
  std::vector<QueryCosts> costs;
  std::vector<Cell> cells;
};

/// Profiled single-threaded pass: the per-query cost columns.
std::vector<QueryCosts> MeasureCosts(const QueryFn& run) {
  std::vector<QueryCosts> costs;
  for (const QuerySpec& query : kQueries) {
    QueryCosts cost;
    cost.spec = &query;
    auto ids = run(query.path, &cost.profile);
    CheckOk(ids.status(), query.path);
    cost.hits = ids->size();
    costs.push_back(std::move(cost));
  }
  return costs;
}

/// One throughput cell: T threads run kQueriesPerThread queries each.
Cell MeasureCell(const QueryFn& run, int threads) {
  std::vector<std::thread> workers;
  const auto start = std::chrono::steady_clock::now();
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kQueriesPerThread; ++i) {
        auto ids = run(kQueries[(t + i) % kQueries.size()].path, nullptr);
        CheckOk(ids.status(), "threaded query");
      }
    });
  }
  for (auto& worker : workers) worker.join();

  Cell cell;
  cell.threads = threads;
  cell.total_queries = static_cast<uint64_t>(threads) * kQueriesPerThread;
  cell.elapsed_ms = MillisSince(start);
  cell.qps = cell.elapsed_ms > 0
                 ? 1000.0 * static_cast<double>(cell.total_queries) /
                       cell.elapsed_ms
                 : 0;
  return cell;
}

EngineReport MeasureEngine(const char* name, const QueryFn& run) {
  EngineReport report;
  report.name = name;
  report.costs = MeasureCosts(run);
  for (int threads : kThreadCounts) {
    report.cells.push_back(MeasureCell(run, threads));
  }
  return report;
}

void WriteJson(const std::vector<EngineReport>& reports, int records) {
  FILE* out = fopen("BENCH_throughput.json", "w");
  if (out == nullptr) {
    fprintf(stderr, "bench: cannot write BENCH_throughput.json\n");
    return;
  }
  fprintf(out, "{\n");
  fprintf(out, "  \"bench\": \"throughput_threads\",\n");
  fprintf(out, "  \"dataset\": \"dblp\",\n");
  fprintf(out, "  \"records\": %d,\n", records);
  fprintf(out, "  \"hardware_threads\": %u,\n",
          std::thread::hardware_concurrency());
  fprintf(out, "  \"queries_per_thread\": %d,\n", kQueriesPerThread);
  fprintf(out, "  \"engines\": [\n");
  for (size_t e = 0; e < reports.size(); ++e) {
    const EngineReport& report = reports[e];
    fprintf(out, "    {\n      \"engine\": \"%s\",\n", report.name);
    fprintf(out, "      \"queries\": [\n");
    for (size_t q = 0; q < report.costs.size(); ++q) {
      const QueryCosts& cost = report.costs[q];
      fprintf(out,
              "        {\"label\": \"%s\", \"path\": \"%s\", \"hits\": %zu, "
              "\"index_nodes_accessed\": %llu, \"candidates\": %llu, "
              "\"verified_results\": %llu, \"hit_rate\": %.4f, "
              "\"range_scans\": %llu, \"joins\": %llu}%s\n",
              cost.spec->label, cost.spec->path, cost.hits,
              static_cast<unsigned long long>(
                  cost.profile.index_nodes_accessed),
              static_cast<unsigned long long>(cost.profile.candidates),
              static_cast<unsigned long long>(cost.profile.verified_results),
              cost.profile.hit_rate(),
              static_cast<unsigned long long>(cost.profile.range_scans),
              static_cast<unsigned long long>(cost.profile.joins),
              q + 1 < report.costs.size() ? "," : "");
    }
    fprintf(out, "      ],\n      \"throughput\": [\n");
    const double base_qps =
        report.cells.empty() ? 0 : report.cells.front().qps;
    for (size_t c = 0; c < report.cells.size(); ++c) {
      const Cell& cell = report.cells[c];
      fprintf(out,
              "        {\"threads\": %d, \"total_queries\": %llu, "
              "\"elapsed_ms\": %.1f, \"qps\": %.1f, "
              "\"speedup_vs_1\": %.2f}%s\n",
              cell.threads,
              static_cast<unsigned long long>(cell.total_queries),
              cell.elapsed_ms, cell.qps,
              base_qps > 0 ? cell.qps / base_qps : 0,
              c + 1 < report.cells.size() ? "," : "");
    }
    fprintf(out, "      ]\n    }%s\n", e + 1 < reports.size() ? "," : "");
  }
  fprintf(out, "  ]\n}\n");
  fclose(out);
}

void PrintSummary(const std::vector<EngineReport>& reports) {
  printf("\n=== Parallel query throughput (queries/sec, %d queries per "
         "thread, %u hardware threads) ===\n",
         kQueriesPerThread, std::thread::hardware_concurrency());
  printf("%-10s", "engine");
  for (int threads : kThreadCounts) printf(" %8dT", threads);
  printf("  speedup 1->4\n");
  for (const EngineReport& report : reports) {
    printf("%-10s", report.name);
    for (const Cell& cell : report.cells) printf(" %9.0f", cell.qps);
    double speedup = 0;
    for (const Cell& cell : report.cells) {
      if (cell.threads == 4 && report.cells.front().qps > 0) {
        speedup = cell.qps / report.cells.front().qps;
      }
    }
    printf("  %10.2fx\n", speedup);
  }
  printf("\nCost columns per query are in BENCH_throughput.json; scaling "
         "tops out at the hardware thread count above.\n");
}

void Run() {
  const int records = Scaled(20000);
  Engines engines = BuildEngines(records);
  std::vector<EngineReport> reports;
  reports.push_back(MeasureEngine(
      "vist", [&](const char* path, obs::QueryProfile* profile) {
        QueryOptions options;
        options.profile = profile;
        return engines.vist->Query(path, options);
      }));
  reports.push_back(MeasureEngine(
      "path", [&](const char* path, obs::QueryProfile* profile) {
        QueryOptions options;
        options.profile = profile;
        return engines.paths->Query(path, options);
      }));
  reports.push_back(MeasureEngine(
      "node", [&](const char* path, obs::QueryProfile* profile) {
        QueryOptions options;
        options.profile = profile;
        return engines.nodes->Query(path, options);
      }));
  WriteJson(reports, records);
  PrintSummary(reports);
}

}  // namespace
}  // namespace bench
}  // namespace vist

int main() {
  vist::bench::Run();
  return 0;
}
