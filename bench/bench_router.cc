// E7: the cost-based router against the per-query best and worst single
// engine on the E1 query set (Table 3's eight queries over the DBLP-like
// and XMARK-like corpora).
//
// The claim under test (EXPERIMENTS.md E7): after a short warmup that
// lets the feedback loop observe real costs, the router's latency is
// within 1.3x of the per-query BEST engine (it pays one feature
// extraction + one lock + occasionally an exploration probe on top of the
// winning engine), and strictly better overall than the WORST single
// engine (the whole point of routing: no single engine is good at all
// eight shapes).
//
// Emits BENCH_router.json (schema in EXPERIMENTS.md).

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "exec/router.h"

namespace vist {
namespace bench {
namespace {

constexpr int kWarmupRuns = 20;  // per query: lets the feedback EWMA converge

// One corpus with all three engines loaded and the router on top. Inserts
// go through the router so its name statistics (selectivity input) see
// the corpus, exactly as a served deployment would.
struct Rig {
  Engines engines;
  std::unique_ptr<exec::Router> router;
};

Rig BuildRig(const std::string& name, bool dblp, int records) {
  Rig rig;
  rig.engines = CreateEngines("router_" + name);
  rig.router = std::make_unique<exec::Router>(rig.engines.vist.get(),
                                              rig.engines.paths.get(),
                                              rig.engines.nodes.get());
  GenerateCorpus(dblp, records, [&](const xml::Document& doc, uint64_t id) {
    CheckOk(rig.router->InsertDocument(*doc.root(), id), "router insert");
  });
  CheckOk(rig.router->Flush(), "router flush");
  return rig;
}

struct Row {
  const QuerySpec* query;
  double vist_ms = 0, path_ms = 0, node_ms = 0, router_ms = 0;
  double best_ms = 0, worst_ms = 0;
  const char* best_engine = "";
  const char* worst_engine = "";
  const char* router_pick = "";
  size_t hits = 0;
};

template <typename Fn>
double TimeQuery(const char* path, size_t* hits, Fn&& run) {
  double total = 0;
  for (int i = 0; i < kTimedRuns; ++i) {
    const auto start = std::chrono::steady_clock::now();
    auto ids = run(path);
    total += MillisSince(start);
    CheckOk(ids.status(), path);
    *hits = ids->size();
  }
  return total / kTimedRuns;
}

}  // namespace
}  // namespace bench
}  // namespace vist

int main() {
  using namespace vist;
  using namespace vist::bench;

  const int records = Scaled(20000);
  printf("building corpora (%d records each, through the router)...\n",
         records);
  Rig dblp = BuildRig("dblp", /*dblp=*/true, records);
  Rig xmark = BuildRig("xmark", /*dblp=*/false, records);

  // Warmup: a cold feature bucket runs each engine three times before its
  // observed costs rank them; the remaining runs let the EWMA settle.
  for (int i = 0; i < kWarmupRuns; ++i) {
    for (const QuerySpec& query : kTable3Queries) {
      Rig& rig = query.dblp ? dblp : xmark;
      CheckOk(rig.router->Query(query.path).status(), query.path);
    }
  }

  std::vector<Row> rows;
  for (const QuerySpec& query : kTable3Queries) {
    Rig& rig = query.dblp ? dblp : xmark;
    Engines& engines = rig.engines;
    Row row;
    row.query = &query;
    row.vist_ms = TimeQuery(query.path, &row.hits, [&](const char* p) {
      return engines.vist->Query(p);
    });
    row.path_ms = TimeQuery(query.path, &row.hits, [&](const char* p) {
      return engines.paths->Query(p);
    });
    row.node_ms = TimeQuery(query.path, &row.hits, [&](const char* p) {
      return engines.nodes->Query(p);
    });
    row.router_ms = TimeQuery(
        query.path, &row.hits, [&](const char* p) { return rig.router->Query(p); });
    row.router_pick = exec::Router::EngineName(rig.router->last_pick());
    struct Cell {
      const char* name;
      double ms;
    };
    const std::array<Cell, 3> cells = {{{"vist", row.vist_ms},
                                        {"path", row.path_ms},
                                        {"node", row.node_ms}}};
    const auto [min_it, max_it] = std::minmax_element(
        cells.begin(), cells.end(),
        [](const Cell& a, const Cell& b) { return a.ms < b.ms; });
    row.best_ms = min_it->ms;
    row.best_engine = min_it->name;
    row.worst_ms = max_it->ms;
    row.worst_engine = max_it->name;
    rows.push_back(row);
  }

  double router_total = 0, best_total = 0;
  double vist_total = 0, path_total = 0, node_total = 0;
  for (const Row& row : rows) {
    router_total += row.router_ms;
    best_total += row.best_ms;
    vist_total += row.vist_ms;
    path_total += row.path_ms;
    node_total += row.node_ms;
  }
  const double worst_single_total =
      std::max({vist_total, path_total, node_total});
  const bool within_best_bound = router_total <= 1.3 * best_total;
  const bool beats_worst_engine = router_total < worst_single_total;

  printf("\n=== E7: router vs. single engines, query time (ms) ===\n");
  printf("%-4s %8s %8s %8s %8s  %-5s %8s  %s\n", "", "vist", "path", "node",
         "router", "pick", "rt/best", "query");
  for (const Row& row : rows) {
    printf("%-4s %8.2f %8.2f %8.2f %8.2f  %-5s %8.2f  %s (%zu hits)\n",
           row.query->label, row.vist_ms, row.path_ms, row.node_ms,
           row.router_ms, row.router_pick,
           row.best_ms > 0 ? row.router_ms / row.best_ms : 0.0,
           row.query->path, row.hits);
  }
  printf("totals: router %.2f, per-query-best %.2f (x%.2f), single engines "
         "vist %.2f / path %.2f / node %.2f\n",
         router_total, best_total,
         best_total > 0 ? router_total / best_total : 0.0, vist_total,
         path_total, node_total);
  printf("acceptance: within 1.3x of best: %s; beats worst single engine: "
         "%s\n",
         within_best_bound ? "yes" : "NO", beats_worst_engine ? "yes" : "NO");

  FILE* out = fopen("BENCH_router.json", "w");
  if (out == nullptr) {
    fprintf(stderr, "bench: cannot write BENCH_router.json\n");
    return 1;
  }
  fprintf(out, "{\n");
  fprintf(out, "  \"bench\": \"router\",\n");
  fprintf(out, "  \"records_per_corpus\": %d,\n", records);
  fprintf(out, "  \"hardware_threads\": %u,\n",
          std::thread::hardware_concurrency());
  fprintf(out, "  \"warmup_runs\": %d,\n", kWarmupRuns);
  fprintf(out, "  \"timed_runs\": %d,\n", kTimedRuns);
  fprintf(out, "  \"queries\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    fprintf(out,
            "    {\"query\": \"%s\", \"dataset\": \"%s\", \"vist_ms\": %.3f, "
            "\"path_ms\": %.3f, \"node_ms\": %.3f, \"router_ms\": %.3f, "
            "\"router_pick\": \"%s\", \"best_engine\": \"%s\", "
            "\"best_ms\": %.3f, \"worst_engine\": \"%s\", \"worst_ms\": %.3f, "
            "\"ratio_to_best\": %.3f, \"hits\": %zu}%s\n",
            row.query->label, row.query->dblp ? "DBLP" : "XMARK", row.vist_ms,
            row.path_ms, row.node_ms, row.router_ms, row.router_pick,
            row.best_engine, row.best_ms, row.worst_engine, row.worst_ms,
            row.best_ms > 0 ? row.router_ms / row.best_ms : 0.0, row.hits,
            i + 1 < rows.size() ? "," : "");
  }
  fprintf(out, "  ],\n");
  fprintf(out, "  \"totals\": {\"router_ms\": %.3f, \"best_ms\": %.3f, "
          "\"vist_ms\": %.3f, \"path_ms\": %.3f, \"node_ms\": %.3f},\n",
          router_total, best_total, vist_total, path_total, node_total);
  fprintf(out, "  \"acceptance\": {\"within_1_3x_of_best\": %s, "
          "\"beats_worst_single_engine\": %s}\n",
          within_best_bound ? "true" : "false",
          beats_worst_engine ? "true" : "false");
  fprintf(out, "}\n");
  fclose(out);
  printf("wrote BENCH_router.json\n");
  return (within_best_bound && beats_worst_engine) ? 0 : 1;
}
