// Shared helpers for the reproduction benchmarks.
//
// Every binary honors VIST_BENCH_SCALE (a positive double): corpus sizes
// are multiplied by it. The defaults are sized so the whole bench suite
// finishes in a few minutes; VIST_BENCH_SCALE=50 reaches the paper's 10^6
// sequences for the synthetic experiments.

#ifndef VIST_BENCH_BENCH_UTIL_H_
#define VIST_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baseline/node_index.h"
#include "baseline/path_index.h"
#include "common/logging.h"
#include "common/status.h"
#include "datagen/dblp_gen.h"
#include "datagen/xmark_gen.h"
#include "seq/sequence.h"
#include "vist/vist_index.h"

namespace vist {
namespace bench {

inline double Scale() {
  static const double scale = [] {
    const char* env = getenv("VIST_BENCH_SCALE");
    return env != nullptr ? atof(env) : 1.0;
  }();
  return scale > 0 ? scale : 1.0;
}

inline int Scaled(int base) {
  const double value = base * Scale();
  return value < 1 ? 1 : static_cast<int>(value);
}

/// A self-cleaning scratch directory for index files.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name) {
    path_ = std::filesystem::temp_directory_path() /
            ("vist_bench_" + name + "_" + std::to_string(getpid()));
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() { std::filesystem::remove_all(path_); }

  std::string Sub(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

inline void CheckOk(const Status& status, const char* what) {
  if (!status.ok()) {
    fprintf(stderr, "bench: %s: %s\n", what, status.ToString().c_str());
    abort();
  }
}

inline double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Timed repetitions of each (query, engine) row in E1 and E7, after the
/// row is warm: enough that one slow run moves a row's mean by a few
/// percent.
inline constexpr int kTimedRuns = 20;

/// One of Table 3's evaluation queries.
struct QuerySpec {
  const char* label;
  const char* path;
  bool dblp;  // else XMARK
};

/// Table 3, with Q6 adapted to real XMARK nesting (mailbox/mail) — see
/// DESIGN.md. Q1-Q5 run over the DBLP-like corpus, Q6-Q8 over the
/// XMARK-like one.
inline constexpr QuerySpec kTable3Queries[] = {
    {"Q1", "/inproceedings/title", true},
    {"Q2", "/book/author[text()='David']", true},
    {"Q3", "/*/author[text()='David']", true},
    {"Q4", "//author[text()='David']", true},
    {"Q5", "/book[key='books/bc/MaierW88']/author", true},
    {"Q6", "/site//item[location='US']/mailbox/mail/date[text()='12/15/1999']",
     false},
    {"Q7", "/site//person/*/city[text()='Pocatello']", false},
    {"Q8", "//closed_auction[*[person='person1']]/date[text()='12/15/1999']",
     false},
};

/// ViST and both baselines over one document set, in a scratch directory
/// of their own. The baselines share ViST's symbol table.
struct Engines {
  std::unique_ptr<ScratchDir> scratch;
  std::unique_ptr<VistIndex> vist;
  std::unique_ptr<PathIndex> paths;
  std::unique_ptr<NodeIndex> nodes;
};

/// Creates the three engines, empty, in the scratch directory `name`.
inline Engines CreateEngines(const std::string& name) {
  Engines engines;
  engines.scratch = std::make_unique<ScratchDir>(name);
  auto vist_index =
      VistIndex::Create(engines.scratch->Sub("vist"), VistOptions());
  CheckOk(vist_index.status(), "create vist");
  engines.vist = std::move(vist_index).value();
  SymbolTable* symtab = engines.vist->symbols();
  auto paths = PathIndex::Create(engines.scratch->Sub("paths"), symtab);
  CheckOk(paths.status(), "create path index");
  engines.paths = std::move(paths).value();
  auto nodes = NodeIndex::Create(engines.scratch->Sub("nodes"), symtab);
  CheckOk(nodes.status(), "create node index");
  engines.nodes = std::move(nodes).value();
  return engines;
}

/// Calls `visit(doc, id)` for the first `records` generated DBLP-like (else
/// XMARK-like) documents, with ids 1..records.
template <typename Visit>
void GenerateCorpus(bool dblp, int records, Visit&& visit) {
  DblpGenerator dblp_gen{DblpOptions{}};
  XmarkGenerator xmark_gen{XmarkOptions{}};
  for (int i = 0; i < records; ++i) {
    const xml::Document doc =
        dblp ? dblp_gen.NextRecord(i) : xmark_gen.NextRecord(i);
    visit(doc, static_cast<uint64_t>(i) + 1);
  }
}

/// Inserts the generated corpus into each engine directly. When
/// `sequences` is not null it receives the structure-encoded sequences in
/// id order.
inline void LoadEngines(
    Engines* engines, bool dblp, int records,
    std::vector<std::pair<uint64_t, Sequence>>* sequences = nullptr) {
  GenerateCorpus(dblp, records, [&](const xml::Document& doc, uint64_t id) {
    CheckOk(engines->vist->InsertDocument(*doc.root(), id), "vist insert");
    Sequence seq = BuildSequence(*doc.root(), engines->vist->symbols());
    CheckOk(engines->paths->InsertSequence(seq, id), "path insert");
    CheckOk(engines->nodes->InsertDocument(*doc.root(), id), "node insert");
    if (sequences != nullptr) sequences->emplace_back(id, std::move(seq));
  });
}

}  // namespace bench
}  // namespace vist

#endif  // VIST_BENCH_BENCH_UTIL_H_
