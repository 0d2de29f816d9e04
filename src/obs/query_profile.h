// Per-query profile / EXPLAIN record — the paper-native cost accounting for
// one query evaluation.
//
// The paper's evaluation (§4, Table 4 / Fig. 10-11) measures queries in
// index-node accesses and disk behavior, not just wall time. A QueryProfile
// captures exactly those measures for a single query: B+ tree node (page)
// accesses, buffer-pool hits/misses, the matcher's range-scan extents, and
// candidate vs. verified result counts. Every engine (VistIndex, RistIndex,
// and both baselines) accepts an optional QueryProfile* on its query path
// and fills it in; Dump() renders a human-readable EXPLAIN block (format
// documented in docs/OBSERVABILITY.md).
//
// Counting works by deltas: ProfileScope snapshots the calling thread's
// mirror of the storage counters (obs::ThisThreadStorageCounters) at query
// start and subtracts at the end. The storage layer bumps the thread-local
// mirrors alongside the global MetricsRegistry instruments, so deltas stay
// exact even when many queries run concurrently on different threads —
// each scope only ever sees work performed on its own thread. A profile
// therefore measures the thread it lives on; don't hand one query's
// ProfileScope work to another thread.

#ifndef VIST_OBS_QUERY_PROFILE_H_
#define VIST_OBS_QUERY_PROFILE_H_

#include <chrono>
#include <cstdint>
#include <string>

namespace vist {
namespace obs {

struct QueryProfile {
  /// Filled by the engine entry point when known.
  std::string query;   // source path expression, when evaluated from text
  std::string engine;  // "vist", "rist", "path_index", "node_index"

  /// Query compilation: number of query-sequence alternatives evaluated
  /// (branching queries with same-named siblings expand to permutations).
  uint64_t alternatives = 0;

  /// Storage work (deltas over the global storage counters).
  uint64_t index_nodes_accessed = 0;  // B+ tree pages touched (paper's measure)
  uint64_t buffer_pool_hits = 0;
  uint64_t buffer_pool_misses = 0;

  /// Matcher work (ViST/RIST; zero for the baselines).
  uint64_t range_scans = 0;         // D-Ancestor range scans opened
  uint64_t entries_scanned = 0;     // S-Ancestor entries visited (scan extent)
  uint64_t nodes_matched = 0;       // virtual-tree nodes bound to query elems
  uint64_t docid_range_scans = 0;   // final DocId tree range queries

  /// Join work (baselines; zero for ViST/RIST, the paper's point).
  uint64_t joins = 0;

  /// Result accounting. `candidates` counts answers produced by the index
  /// scan; `verified_results` counts answers surviving tree-embedding
  /// verification. When no verification stage ran (verified == false) the
  /// two are equal by convention.
  uint64_t candidates = 0;
  uint64_t verified_results = 0;
  bool verified = false;

  /// Serving-cache outcome (exec::CachingIndex; false when the query ran
  /// against a bare engine). A result hit answers from the cache without
  /// touching the engine, so the storage fields above stay zero.
  bool result_cache_hit = false;

  /// Wall-clock time of the query evaluation, milliseconds.
  double wall_ms = 0;

  /// Buffer-pool hit rate over this query, in [0, 1]; 1 when the query
  /// touched no pool at all (everything cached is the correct reading).
  double hit_rate() const {
    const uint64_t total = buffer_pool_hits + buffer_pool_misses;
    return total == 0 ? 1.0
                      : static_cast<double>(buffer_pool_hits) /
                            static_cast<double>(total);
  }

  /// Human-readable EXPLAIN/profile block (multi-line, trailing newline).
  std::string Dump() const;
};

/// RAII helper filling a QueryProfile's storage deltas and wall time:
/// snapshots this thread's storage counters at construction and accumulates
/// the differences into the profile at Finish() (or destruction). A null
/// profile makes the scope a no-op. Accumulates (+=) rather than assigns,
/// so one profile can span several scopes (e.g. matching + verification).
/// Construction and Finish must happen on the same thread.
class ProfileScope {
 public:
  explicit ProfileScope(QueryProfile* profile);
  ~ProfileScope() { Finish(); }

  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

  /// Folds the deltas into the profile; idempotent.
  void Finish();

 private:
  QueryProfile* profile_;
  uint64_t start_node_accesses_ = 0;
  uint64_t start_pool_hits_ = 0;
  uint64_t start_pool_misses_ = 0;
  std::chrono::steady_clock::time_point start_;
  bool finished_ = false;
};

}  // namespace obs
}  // namespace vist

#endif  // VIST_OBS_QUERY_PROFILE_H_
