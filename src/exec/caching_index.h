// exec::CachingIndex — the query-serving result cache in front of any
// QueryableIndex (docs/SERVING.md).
//
// The paper evaluates one-shot query latency; serving workloads repeat the
// same path expressions millions of times. CachingIndex memoizes a
// repeated query's answer: normalized path + options fingerprint, valid
// for exactly one index epoch → sorted doc-id vector. The wrapped index
// bumps epoch() on every mutation (under its writer lock), so a shard
// whose stamped epoch is behind the current one is dropped wholesale
// before lookup — correct by construction under the snapshot contract —
// while a reader still holding an older epoch misses without touching the
// shard. LRU by byte budget.
//
// A miss compiles the path with the wrapped index's Prepare and runs the
// plan with its QueryWithPlan. Plans are not cached: compiling is a
// negligible share of a query next to Algorithm 2's range scans.
//
// The cache is sharded by key hash; each shard has its own vist::Mutex.
// Shard mutexes are leaves of the lock order: they are never held across
// a call into the wrapped index (docs/CONCURRENCY.md). Counters are
// exported as cache.result.* through the obs registry, and each query
// stamps its QueryProfile with result_cache_hit.
//
// A CachingIndex is itself a QueryableIndex, so serving infrastructure can
// treat cached and uncached engines uniformly (and wrappers can nest).

#ifndef VIST_EXEC_CACHING_INDEX_H_
#define VIST_EXEC_CACHING_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "exec/queryable_index.h"

namespace vist {
namespace exec {

struct CachingIndexOptions {
  /// Result-tier budget in bytes, across all shards. Entries larger than
  /// one shard's slice of the budget are never cached.
  size_t result_capacity_bytes = 8u << 20;
  /// Number of shards (rounded up to at least 1). More shards mean less
  /// mutex contention between concurrent queries of distinct paths.
  size_t shards = 8;
};

class CachingIndex : public QueryableIndex {
 public:
  /// Wraps `wrapped` (borrowed; must outlive this object).
  explicit CachingIndex(QueryableIndex* wrapped,
                        const CachingIndexOptions& options = {});
  ~CachingIndex() override;

  CachingIndex(const CachingIndex&) = delete;
  CachingIndex& operator=(const CachingIndex&) = delete;

  Result<std::vector<uint64_t>> Query(std::string_view path,
                                      const QueryOptions& options = {}) override;
  Result<std::shared_ptr<const QueryPlan>> Prepare(
      std::string_view path, const QueryOptions& options = {}) override;
  Result<std::vector<uint64_t>> QueryWithPlan(
      const QueryPlan& plan, const QueryOptions& options = {}) override;
  Result<IndexStats> Stats() override;
  Status Flush() override;

  /// Forwards to the wrapped index (the cache adds no versions of its
  /// own). Queries carrying an explicit QueryOptions::snapshot bypass the
  /// result tier — its entries are keyed to the CURRENT epoch, while a
  /// pinned snapshot may be arbitrarily older.
  Result<std::shared_ptr<const Snapshot>> GetSnapshot() override {
    return wrapped_->GetSnapshot();
  }

  /// The cache adds no mutations of its own; its epoch is the wrapped
  /// index's.
  uint64_t epoch() const override { return wrapped_->epoch(); }

  QueryableIndex* wrapped() const { return wrapped_; }

  /// Drops every cached result. Never required for correctness
  /// (the epoch rule handles invalidation); useful to reclaim memory or to
  /// reset between benchmark phases.
  void Clear();

  /// The key canonicalization: strips whitespace the path parser provably
  /// ignores (string boundaries, around '[' ']' '=' '*' '@', and around
  /// '/' except where stripping would join a '//' or './/' token), and
  /// nothing inside quoted literals. Deliberately conservative — a
  /// whitespace run that could turn an unparsable string into a parsable
  /// one is kept, so two strings share a key only when the parser treats
  /// them identically.
  static std::string NormalizePath(std::string_view path);

 private:
  struct ResultShard;

  ResultShard& result_shard(std::string_view key) const;

  /// Tier primitives. Each locks one shard internally and never calls into
  /// the wrapped index (the leaf-lock rule above).
  bool LookupResult(const std::string& key, uint64_t current_epoch,
                    std::vector<uint64_t>* out);
  void InsertResult(const std::string& key, uint64_t epoch_at_query,
                    const std::vector<uint64_t>& docs);

  /// Result-tier body shared by Query and QueryWithPlan: lookup under the
  /// epoch read e1, or run `execute` and insert under the e1 == e2 rule.
  template <typename Execute>
  Result<std::vector<uint64_t>> ServeResult(const std::string& key,
                                            const QueryOptions& options,
                                            Execute&& execute);

  QueryableIndex* const wrapped_;
  const size_t result_budget_per_shard_;
  const std::vector<std::unique_ptr<ResultShard>> result_shards_;
};

}  // namespace exec
}  // namespace vist

#endif  // VIST_EXEC_CACHING_INDEX_H_
