// vist_tool: command-line interface to a ViST index directory.
//
//   vist_tool create <index-dir> [--statistical] [--store-documents]
//   vist_tool add    <index-dir> <file.xml> [more.xml ...]
//   vist_tool split-add <index-dir> <file.xml> <element> [element ...]
//   vist_tool query  <index-dir> "<path expression>" [--verify] [--explain]
//   vist_tool get    <index-dir> <doc-id>
//   vist_tool stats  <index-dir>
//   vist_tool check  <index-dir>            (semantic ViST invariants)
//   vist_tool fsck   <index-dir>            (storage-level integrity)
//
// Document ids are assigned sequentially from the current document count.
// The tool opens indexes at the kPowerLoss durability level, so interrupted
// runs (even by power loss) never leave a corrupt index behind.

#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "vist/fsck.h"
#include "vist/schema_stats.h"
#include "vist/splitter.h"
#include "vist/vist_index.h"
#include "xml/parser.h"

namespace {

using vist::Status;
using vist::VistIndex;
using vist::VistOptions;

int Usage() {
  fprintf(stderr,
          "usage: vist_tool create <dir> [--store-documents]\n"
          "       vist_tool add <dir> <file.xml> [...]\n"
          "       vist_tool split-add <dir> <file.xml> <element> [...]\n"
          "       vist_tool query <dir> '<path>' [--verify] [--explain]\n"
          "       vist_tool get <dir> <doc-id>\n"
          "       vist_tool stats <dir>\n"
          "       vist_tool check <dir>\n"
          "       vist_tool fsck <dir>\n");
  return 2;
}

int Fail(const Status& status) {
  fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

vist::Result<std::unique_ptr<VistIndex>> OpenIndex(const std::string& dir) {
  VistOptions options;
  options.durability = vist::DurabilityLevel::kPowerLoss;
  return VistIndex::Open(dir, options);
}

int CmdCreate(int argc, char** argv) {
  if (argc < 1) return Usage();
  VistOptions options;
  options.durability = vist::DurabilityLevel::kPowerLoss;
  for (int i = 1; i < argc; ++i) {
    if (strcmp(argv[i], "--store-documents") == 0) {
      options.store_documents = true;
    } else {
      return Usage();
    }
  }
  auto index = VistIndex::Create(argv[0], options);
  if (!index.ok()) return Fail(index.status());
  printf("created index in %s\n", argv[0]);
  return 0;
}

int AddDocuments(VistIndex* index, const std::vector<vist::xml::Document>& docs) {
  auto stats = index->Stats();
  if (!stats.ok()) return Fail(stats.status());
  uint64_t next_id = stats->num_documents + 1;
  for (const auto& doc : docs) {
    Status s = index->InsertDocument(*doc.root(), next_id);
    if (!s.ok()) return Fail(s);
    printf("doc%llu indexed (%zu nodes)\n", (unsigned long long)next_id,
           doc.root()->SubtreeSize());
    ++next_id;
  }
  Status s = index->Flush();
  if (!s.ok()) return Fail(s);
  return 0;
}

int CmdAdd(int argc, char** argv) {
  if (argc < 2) return Usage();
  auto index = OpenIndex(argv[0]);
  if (!index.ok()) return Fail(index.status());
  std::vector<vist::xml::Document> docs;
  for (int i = 1; i < argc; ++i) {
    auto doc = vist::xml::ParseFile(argv[i]);
    if (!doc.ok()) {
      fprintf(stderr, "%s: ", argv[i]);
      return Fail(doc.status());
    }
    docs.push_back(std::move(doc).value());
  }
  return AddDocuments(index->get(), docs);
}

int CmdSplitAdd(int argc, char** argv) {
  if (argc < 3) return Usage();
  auto index = OpenIndex(argv[0]);
  if (!index.ok()) return Fail(index.status());
  auto doc = vist::xml::ParseFile(argv[1]);
  if (!doc.ok()) return Fail(doc.status());
  const std::set<std::string> split_elements(argv + 2, argv + argc);
  std::vector<vist::xml::Document> records =
      vist::SplitDocument(*doc->root(), split_elements);
  printf("split into %zu records\n", records.size());
  return AddDocuments(index->get(), records);
}

int CmdQuery(int argc, char** argv) {
  if (argc < 2) return Usage();
  auto index = OpenIndex(argv[0]);
  if (!index.ok()) return Fail(index.status());
  vist::QueryOptions options;
  vist::obs::QueryProfile profile;
  for (int i = 2; i < argc; ++i) {
    if (strcmp(argv[i], "--verify") == 0) options.verify = true;
    if (strcmp(argv[i], "--explain") == 0) options.profile = &profile;
  }
  auto ids = (*index)->Query(argv[1], options);
  if (!ids.ok()) return Fail(ids.status());
  for (uint64_t id : *ids) printf("doc%llu\n", (unsigned long long)id);
  fprintf(stderr, "%zu match(es)\n", ids->size());
  if (options.profile != nullptr) fputs(profile.Dump().c_str(), stderr);
  return 0;
}

int CmdGet(int argc, char** argv) {
  if (argc < 2) return Usage();
  auto index = OpenIndex(argv[0]);
  if (!index.ok()) return Fail(index.status());
  auto text = (*index)->GetDocument(strtoull(argv[1], nullptr, 10));
  if (!text.ok()) return Fail(text.status());
  printf("%s\n", text->c_str());
  return 0;
}

int CmdCheck(int argc, char** argv) {
  if (argc < 1) return Usage();
  auto index = OpenIndex(argv[0]);
  if (!index.ok()) return Fail(index.status());
  auto report = (*index)->CheckIntegrity();
  if (!report.ok()) return Fail(report.status());
  printf("%llu nodes, %llu document entries\n",
         (unsigned long long)report->nodes,
         (unsigned long long)report->doc_entries);
  if (report->ok()) {
    printf("integrity: OK\n");
    return 0;
  }
  for (const std::string& problem : report->problems) {
    fprintf(stderr, "PROBLEM: %s\n", problem.c_str());
  }
  return 1;
}

int CmdFsck(int argc, char** argv) {
  if (argc < 1) return Usage();
  auto report = vist::RunFsck(argv[0]);
  if (!report.ok()) return Fail(report.status());
  fputs(report->Summary().c_str(), stdout);
  if (!report->ok()) return 1;
  // Storage is clean; run the semantic (virtual-suffix-tree) checks too so
  // one command answers "is this index trustworthy".
  auto index = OpenIndex(argv[0]);
  if (!index.ok()) return Fail(index.status());
  auto semantic = (*index)->CheckIntegrity();
  if (!semantic.ok()) return Fail(semantic.status());
  for (const std::string& problem : semantic->problems) {
    printf("problem: %s\n", problem.c_str());
  }
  printf("fsck.semantic: %s\n", semantic->ok() ? "clean" : "damaged");
  return semantic->ok() ? 0 : 1;
}

int CmdStats(int argc, char** argv) {
  if (argc < 1) return Usage();
  auto index = OpenIndex(argv[0]);
  if (!index.ok()) return Fail(index.status());
  auto stats = (*index)->Stats();
  if (!stats.ok()) return Fail(stats.status());
  printf("documents:       %llu\n", (unsigned long long)stats->num_documents);
  printf("index nodes:     %llu\n", (unsigned long long)stats->num_entries);
  printf("max depth:       %llu\n", (unsigned long long)stats->max_depth);
  printf("underflow runs:  %llu\n",
         (unsigned long long)stats->underflow_runs);
  printf("size on disk:    %.1f KB\n", stats->size_bytes / 1024.0);
  printf("interned names:  %zu\n", (*index)->symbols()->size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "create") return CmdCreate(argc - 2, argv + 2);
  if (command == "add") return CmdAdd(argc - 2, argv + 2);
  if (command == "split-add") return CmdSplitAdd(argc - 2, argv + 2);
  if (command == "query") return CmdQuery(argc - 2, argv + 2);
  if (command == "get") return CmdGet(argc - 2, argv + 2);
  if (command == "stats") return CmdStats(argc - 2, argv + 2);
  if (command == "check") return CmdCheck(argc - 2, argv + 2);
  if (command == "fsck") return CmdFsck(argc - 2, argv + 2);
  return Usage();
}
