// The unified query-serving surface every index engine implements.
//
// Before this interface existed each engine grew its own query signature
// (`VistIndex::Query(path, QueryOptions)` vs. the baselines' bare
// `Query(path, QueryProfile*)`), which made it impossible to build generic
// serving infrastructure — a cache, an admission controller, a router —
// over "an index" in the abstract. `QueryableIndex` is that abstraction:
//
//   * `Query(path, QueryOptions)`   — evaluate a path expression
//   * `Prepare` / `QueryWithPlan`   — split compilation from execution
//   * `Stats()` / `Flush()`         — introspection and durability
//   * `epoch()`                     — mutation counter for cache validity
//
// The epoch contract: every public mutating entry point runs its body
// through the protected `Mutate`, which holds the writer lock and bumps
// the epoch exactly once at the *end* — strictly after the mutation's new
// version is installed (VersionedStore::Write) or rolled back, and before
// the writer lock is released. Subclasses cannot take the lock or move
// the epoch any other way, so the contract holds by construction.
// Install-then-bump means two equal epoch reads bracket a window in which
// the set of published versions did not shrink to exclude what either
// read saw: any snapshot pinned inside that window belongs to a version
// the epoch names, which is exactly what exec::CachingIndex's result-cache
// invalidation rule needs (docs/SERVING.md). (A query racing the gap
// between install and bump may observe the new version under the old
// epoch; the mutation has not returned yet, so serving its effects early
// is linearizable, and the bump invalidates the cached entry.)
//
// Plans (`Prepare`) are engine-specific compiled forms of a path
// expression. A plan answers for the symbol table as of its `Prepare`,
// so a caller that keeps a plan across a mutation may miss names that
// mutation interned.

#ifndef VIST_EXEC_QUERYABLE_INDEX_H_
#define VIST_EXEC_QUERYABLE_INDEX_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/deadline.h"
#include "common/mutex.h"
#include "common/result.h"
#include "obs/query_profile.h"

namespace vist {

class QueryableIndex;

/// A pinned, immutable read view of one index: every query evaluated
/// against it sees the same committed state, no matter how many writer
/// transactions commit in the meantime — and holding one never blocks a
/// writer (copy-on-write storage; docs/CONCURRENCY.md "Snapshots").
/// Obtained from QueryableIndex::GetSnapshot(); the shared_ptr is the RAII
/// pin: retired pages the snapshot can still reach return to the freelist
/// only after the last owner releases it. Snapshots must not outlive the
/// index that issued them.
class Snapshot {
 public:
  virtual ~Snapshot();

  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;

  /// The engine epoch this snapshot's version installed. Monotone across
  /// snapshots of one index; two snapshots with equal epochs read
  /// identical state.
  virtual uint64_t epoch() const = 0;

 protected:
  /// `owner` is the index that issues the snapshot; every other index
  /// rejects it (QueryableIndex::ResolveSnapshot).
  explicit Snapshot(const QueryableIndex* owner) : owner_(owner) {}

 private:
  friend class QueryableIndex;
  const QueryableIndex* const owner_;
};

/// Per-query options, shared by every engine.
struct QueryOptions {
  /// Filter out the false positives of sequence matching by checking a
  /// real tree embedding against the stored document. Requires
  /// store_documents (engines without a document store reject it).
  bool verify = false;
  /// Optional per-query EXPLAIN/profile sink (see obs/query_profile.h):
  /// receives index-node accesses, buffer-pool hits/misses, range-scan
  /// extents, candidate vs. verified result counts, and wall time. The
  /// caller owns it; fields accumulate, so reuse across queries sums.
  obs::QueryProfile* profile = nullptr;
  /// Evaluate against this pinned snapshot instead of the current state —
  /// repeatable reads across any number of queries. The options own a pin
  /// of their own, so the snapshot stays readable for as long as they (or
  /// any copy) live. It must come from the same engine the query is sent
  /// to (engines reject foreign snapshots with InvalidArgument). Null
  /// (default): each query pins the current version by itself.
  std::shared_ptr<const Snapshot> snapshot;
  /// Cooperative cancellation: engines checkpoint their scan loops against
  /// this deadline and return DeadlineExceeded within a bounded number of
  /// additional index-node visits once it passes (common/deadline.h).
  /// Default: infinite (no cancellation overhead beyond one branch per
  /// checkpoint). The deadline changes whether a query completes, never
  /// what a completed query returns, so caches must exclude it from their
  /// keys (exec::CachingIndex does).
  Deadline deadline;
};

/// Size and cardinality statistics. Engines fill the fields they track and
/// leave the rest zero (the baselines have no virtual-tree entries, for
/// example).
struct IndexStats {
  uint64_t size_bytes = 0;        // page file size
  uint64_t num_documents = 0;     // live (inserted minus deleted)
  uint64_t num_entries = 0;       // S-Ancestor entries (virtual-tree nodes)
  uint64_t max_depth = 0;         // deepest indexed prefix
  uint64_t underflow_runs = 0;    // scope-underflow fallbacks taken
};

/// An engine-specific compiled form of a path expression, produced by
/// `Prepare` and consumed by `QueryWithPlan` of the same engine. Immutable
/// after construction, so one plan may be executed concurrently from many
/// threads.
class QueryPlan {
 public:
  virtual ~QueryPlan();

  QueryPlan(const QueryPlan&) = delete;
  QueryPlan& operator=(const QueryPlan&) = delete;

  /// The source path expression the plan was compiled from.
  const std::string& path() const { return path_; }

 protected:
  explicit QueryPlan(std::string path) : path_(std::move(path)) {}

 private:
  const std::string path_;
};

/// The abstract index every engine (VistIndex, PathIndex, NodeIndex, and
/// wrappers like exec::CachingIndex) implements. Thread-safety contract
/// (docs/CONCURRENCY.md): all methods here are safe to call concurrently
/// from many threads; mutations on the concrete engines serialize behind
/// the writer lock that Mutate takes.
class QueryableIndex {
 public:
  virtual ~QueryableIndex();

  /// Evaluates a path expression; returns sorted matching doc ids.
  /// Exactly `QueryWithPlan(**Prepare(path, options), options)`; virtual
  /// so wrappers can serve it another way (exec::CachingIndex's cache).
  virtual Result<std::vector<uint64_t>> Query(std::string_view path,
                                              const QueryOptions& options = {});

  /// Compiles a path expression into this engine's plan form without
  /// executing it. The returned plan is immutable and shareable, and
  /// answers for the symbol table as of this call (see the file comment).
  virtual Result<std::shared_ptr<const QueryPlan>> Prepare(
      std::string_view path, const QueryOptions& options = {}) = 0;

  /// Executes a plan previously produced by this engine's Prepare.
  virtual Result<std::vector<uint64_t>> QueryWithPlan(
      const QueryPlan& plan, const QueryOptions& options = {}) = 0;

  /// Pins the current committed state as a reusable read view (see
  /// Snapshot). Lock-free on the concrete engines: never waits on an
  /// in-flight writer. The base implementation returns NotSupported for
  /// wrappers/fakes that have no versioned storage to pin.
  virtual Result<std::shared_ptr<const Snapshot>> GetSnapshot();

  virtual Result<IndexStats> Stats() = 0;

  /// Makes all prior mutations durable by committing the current batch.
  virtual Status Flush() = 0;

  /// Monotonically increasing mutation counter: bumped exactly once by
  /// every public mutating entry point, before that mutation's writer lock
  /// is released. Equal values bracket a mutation-free window.
  virtual uint64_t epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

 protected:
  /// `writer_rank` names the writer lock's class in common/lock_ranks.h:
  /// kIndexWriter for an engine, kRouter for a router fronting engines.
  explicit QueryableIndex(LockRank writer_rank = LockRank::kIndexWriter)
      : writer_mu_(writer_rank) {}

  /// Runs one mutating entry point. `body(epoch)` executes under the
  /// writer lock, which serializes mutators (queries never take it), and
  /// receives the epoch its new version is to be stamped with. Once the
  /// body returns — succeeded or failed — the epoch is bumped exactly
  /// once, before the lock is released (install-then-bump, see the file
  /// comment). This is the only way to take the lock or move the epoch.
  template <typename Body>
  Status Mutate(Body&& body) VIST_EXCLUDES(writer_mu_) {
    MutexLock lock(writer_mu_);
    Status s = body(epoch_.load(std::memory_order_acquire) + 1);
    epoch_.fetch_add(1, std::memory_order_acq_rel);
    return s;
  }

  /// The snapshot a query reads: `options.snapshot` when the caller gave
  /// one — checked to be a `SnapshotT` this index issued (InvalidArgument
  /// otherwise) — else `pin()`, a fresh pin of the current state.
  template <typename SnapshotT, typename Pin>
  Result<std::shared_ptr<const SnapshotT>> ResolveSnapshot(
      const QueryOptions& options, Pin&& pin) const {
    if (options.snapshot == nullptr) return pin();
    std::shared_ptr<const SnapshotT> snap;
    if (options.snapshot->owner_ == this) {
      snap = std::dynamic_pointer_cast<const SnapshotT>(options.snapshot);
    }
    if (snap == nullptr) {
      return Status::InvalidArgument(
          "QueryOptions::snapshot was not issued by this index");
    }
    return snap;
  }

 private:
  Mutex writer_mu_;
  std::atomic<uint64_t> epoch_{0};
};

}  // namespace vist

#endif  // VIST_EXEC_QUERYABLE_INDEX_H_
