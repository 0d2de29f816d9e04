// Reproduces Figure 11(a): index size for the DBLP and XMARK datasets,
// for ViST (dynamic scopes) and RIST (exact static labels).
//
// Paper's finding: index size is a small multiple of the raw data size
// (DBLP: ~300 MB data; XMARK items: 52 MB), with ViST and RIST close to
// each other (they store the same entries; only labels differ).
//
// We additionally report the raw XML bytes generated, so the
// index-to-data ratio — the comparable quantity across hardware eras —
// is printed directly.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "bench_util.h"
#include "datagen/dblp_gen.h"
#include "datagen/xmark_gen.h"
#include "vist/rist_builder.h"
#include "vist/vist_index.h"
#include "xml/writer.h"

namespace vist {
namespace bench {
namespace {

void BM_IndexSize(benchmark::State& state, bool dblp) {
  const int records = Scaled(20000);
  for (auto _ : state) {
    ScratchDir scratch(dblp ? "fig11a_dblp" : "fig11a_xmark");
    VistOptions options;
    options.page_size = 2048;  // the paper's Berkeley DB page size
    auto vist_index = VistIndex::Create(scratch.Sub("vist"), options);
    CheckOk(vist_index.status(), "create");

    DblpGenerator dblp_gen{DblpOptions{}};
    XmarkGenerator xmark_gen{XmarkOptions{}};
    uint64_t raw_bytes = 0;
    std::vector<std::pair<uint64_t, Sequence>> sequences;
    for (int i = 0; i < records; ++i) {
      xml::Document doc =
          dblp ? dblp_gen.NextRecord(i) : xmark_gen.NextRecord(i);
      raw_bytes += xml::Write(doc).size();
      CheckOk((*vist_index)->InsertDocument(*doc.root(), i + 1), "insert");
      sequences.emplace_back(
          i + 1, BuildSequence(*doc.root(), (*vist_index)->symbols()));
    }
    StoreOptions rist_options;
    rist_options.page_size = 2048;
    auto rist = RistIndex::Build(scratch.Sub("rist"), sequences,
                                 (*vist_index)->symbols(), rist_options);
    CheckOk(rist.status(), "build rist");

    auto stats = (*vist_index)->Stats();
    CheckOk(stats.status(), "stats");
    state.counters["records"] = records;
    state.counters["raw_MB"] = raw_bytes / (1024.0 * 1024.0);
    state.counters["vist_MB"] = stats->size_bytes / (1024.0 * 1024.0);
    state.counters["rist_MB"] = (*rist)->size_bytes() / (1024.0 * 1024.0);
    state.counters["vist_to_raw"] =
        static_cast<double>(stats->size_bytes) / raw_bytes;
    state.counters["rist_to_raw"] =
        static_cast<double>((*rist)->size_bytes()) / raw_bytes;
  }
}

void BM_IndexSizeDblp(benchmark::State& state) { BM_IndexSize(state, true); }
void BM_IndexSizeXmark(benchmark::State& state) {
  BM_IndexSize(state, false);
}

BENCHMARK(BM_IndexSizeDblp)->Unit(benchmark::kSecond)->Iterations(1);
BENCHMARK(BM_IndexSizeXmark)->Unit(benchmark::kSecond)->Iterations(1);

}  // namespace
}  // namespace bench
}  // namespace vist

BENCHMARK_MAIN();
