// The benchmark's workloads and the inputs each one is built from: the
// corpus, the write stream, the query strings and their oracle answers, and
// the per-connection request order. Everything is a pure function of the
// workload and the seed.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "xml/node.h"

namespace perfbench {

struct WorkloadSpec {
  const char* name;
  bool xmark;         // XMARK-like records; otherwise DBLP-like
  int records;        // corpus size at scale 1
  int readers;        // closed-loop QUERY connections
  bool hot;           // Zipf over a fixed set of strings, result tier warm
  bool churn;         // a writer connection runs beside the readers
  int pool_divisor;   // 0: default pool; k: loaded index pages / k
};

/// nullptr for an unknown name.
const WorkloadSpec* FindWorkload(std::string_view name);

struct Doc {
  uint64_t id = 0;
  std::string xml;  // the exact text sent over the wire
  vist::xml::Document tree;
};

struct QueryCase {
  std::string path;
  /// Expected corpus answer (exact) and the write-stream documents the path
  /// matches (a live answer may hold any subset of them).
  std::vector<uint64_t> corpus_ids;
  std::vector<uint64_t> stream_ids;
};

struct Inputs {
  std::vector<Doc> corpus;  // ids 1..N, bulk-loaded
  std::vector<Doc> stream;  // ids N+1.., inserted and deleted over the wire
  std::vector<QueryCase> cases;
  /// Per reader: the order in which it sends `cases` (wraps around). Empty
  /// for a hot workload, whose readers draw from `hot_cdf` instead.
  std::vector<std::vector<uint32_t>> request_order;
  std::vector<double> hot_cdf;

  uint64_t corpus_size() const { return corpus.size(); }
  /// Draws a case index: the next one in `reader`'s order, or a Zipf draw.
  uint32_t NextCase(int reader, uint64_t* position, vist::Random* rng) const;
};

/// Generates the inputs and computes every oracle answer. `stream_docs` is
/// how many write-stream documents to generate.
vist::Status MakeInputs(const WorkloadSpec& spec, uint64_t seed, double scale,
                        size_t requests_per_reader, size_t stream_docs,
                        Inputs* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
