// exec::Router — cost-based dispatch over all three engines.
//
// EXPERIMENTS.md E7 shows no single engine wins: PathIndex is fastest on
// the plain and value paths Q1/Q2, and ViST's structure-encoded matching
// on Q3-Q8. The router keeps all three loaded over the same document
// set, extracts plan features per query (exec/plan_features.h), scores
// each engine with a small cost model, and dispatches to the cheapest.
//
// The cost model is learned from live traffic alone: after every routed
// query the router folds the observed QueryProfile cost (wall time, with
// index_nodes_accessed, range_scans and joins as a tiebreaker) into a
// per-plan-feature-bucket EWMA for the engine that ran it, and ranks the
// engines by it (`router.mispick_corrections` counts the ranking
// flipping). Cold buckets round-robin the engines until each has three
// observations, and a periodic exploration query (every 64th in a warm
// bucket) keeps the non-preferred engines' estimates fresh. An engine
// that answers NotSupported before it has answered any query in a bucket
// ranks last there until an exploration query finds it answering.
//
// Plans: `Prepare` only extracts the plan features, which refuses a
// shape no engine can lower. `QueryWithPlan` compiles and runs the query
// on the engine it ranks first and fails over to the next-ranked engine
// when that one cannot compile it (NotSupported), so a routed query
// compiles once on the engine that answers. Because compilation happens
// at execution, a router plan sees every name interned before it runs,
// unlike the engine plans that queryable_index.h describes.
//
// Composition contract (the reason the router is itself a
// QueryableIndex): mutations fan out to all three engines under the
// router's writer lock (its own QueryableIndex::Mutate) and finish by
// pinning every engine's freshly committed version into one composite
// RouterSnapshot, published atomically just before the epoch bump.
// Queries take no router lock at all: they load the published snapshot
// and hand each engine its own pinned member snapshot, so a query —
// failover attempts included — reads one consistent cross-engine corpus
// even while a fan-out is mid-flight, and never waits on a writer. Two
// equal router-epoch reads still bracket a window in which the published
// snapshot did not change, which is exactly the invariant
// exec::CachingIndex's e1/e2 protocol needs — the cache wraps the router
// unchanged. The shared symbol table is internally synchronized
// (seq/symbol_table.h), so plan compilation needs no router lock either.
//
// Lock order: router writer lock (mutators only) → engine writer lock →
// storage latches. The feedback state lives under its own leaf mutex,
// never held across an engine call. Deadlines propagate untouched into
// whichever engine runs (QueryOptions::deadline), and verified queries
// always go to ViST — the only engine with a document store.

#ifndef VIST_EXEC_ROUTER_H_
#define VIST_EXEC_ROUTER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "baseline/node_index.h"
#include "baseline/path_index.h"
#include "common/atomic_shared_ptr.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "exec/plan_features.h"
#include "exec/queryable_index.h"
#include "vist/vist_index.h"
#include "xml/node.h"

namespace vist {
namespace exec {

class RouterSnapshot;

/// Routes queries across the three engines. All engines are borrowed,
/// must outlive the router, and must share the ViST index's symbol table
/// (construct the baselines with `vist->symbols()`). From the moment the
/// router is constructed, every mutation and query against the engines
/// must go through it — a direct engine mutation would bypass the
/// composite snapshot (see the header comment) and the router's corpus
/// statistics.
class Router : public QueryableIndex {
 public:
  enum class Engine { kVist = 0, kPath = 1, kNode = 2 };
  static constexpr size_t kNumEngines = 3;

  static const char* EngineName(Engine engine);

  Router(VistIndex* vist, PathIndex* paths, NodeIndex* nodes);

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Fans the document out to all three engines (ViST keeps the document
  /// store; the path baseline receives the structure-encoded sequence)
  /// and updates the name-frequency statistics behind selectivity
  /// estimates. A mid-fan-out error leaves the engines divergent — treat
  /// it as fatal for this router instance.
  Status InsertDocument(const xml::Node& root, uint64_t doc_id);

  /// Removes a document previously inserted with this exact content from
  /// all three engines.
  Status DeleteDocument(const xml::Node& root, uint64_t doc_id);

  /// Extracts the plan features of `path` and compiles nothing: the
  /// engine is picked, and compiles the query, per execution, so a reused
  /// plan keeps benefiting from feedback. Fails on a malformed path, and
  /// with NotSupported on a shape no engine can lower ("/a/*").
  Result<std::shared_ptr<const QueryPlan>> Prepare(
      std::string_view path, const QueryOptions& options = {}) override;

  /// Compiles and executes `plan`'s path on the predicted-cheapest engine;
  /// returns sorted matching doc ids, byte-identical to what any single
  /// engine returns. An engine that cannot compile the query
  /// (NotSupported, e.g. ViST's permutation-expansion cap) fails over to
  /// the next-ranked engine (`router.failovers`); if it has not yet
  /// answered in the query's bucket, it ranks last there until it answers
  /// a later probe. NotSupported comes back only when no engine can
  /// compile it. A verified query runs on ViST alone.
  Result<std::vector<uint64_t>> QueryWithPlan(
      const QueryPlan& plan, const QueryOptions& options = {}) override;

  /// Loads the published composite snapshot — lock-free, never fails. The
  /// snapshot brackets all three engines at the end of one fan-out, so
  /// queries pinned to it are cross-engine consistent.
  Result<std::shared_ptr<const Snapshot>> GetSnapshot() override;

  /// Aggregates: size_bytes sums all engines; the document/depth/entry
  /// fields come from ViST (the primary engine). Each engine reports from
  /// its own current version (no router lock), so a concurrent fan-out may
  /// land between the three reads — acceptable for diagnostics.
  Result<IndexStats> Stats() override;

  /// Flushes all three engines.
  Status Flush() override;

  /// The engine the most recently completed query ran on (after any
  /// failover). Tests and benches introspect routing through this.
  Engine last_pick() const {
    return static_cast<Engine>(last_pick_.load(std::memory_order_relaxed));
  }

 private:
  struct EngineStat {
    uint64_t observations = 0;
    double ewma_cost = 0;
    /// The engine could not compile the bucket's queries before it
    /// answered any: it ranks last until a success.
    bool unsupported = false;
  };
  struct Bucket {
    std::array<EngineStat, kNumEngines> engines;
    uint64_t queries = 0;
  };

  /// Ranks all engines from predicted-cheapest to dearest for this
  /// bucket by observed EWMA, applying cold-start round-robin and
  /// periodic exploration; engines that could not compile the bucket's
  /// queries rank last. Bumps the bucket's query count.
  std::vector<Engine> RankEngines(uint32_t bucket_key);

  /// Folds one observed query cost into the bucket's EWMA for `engine`,
  /// counting a mispick correction when the observed argmin changes.
  void RecordObservation(uint32_t bucket_key, Engine engine, double cost);

  /// Records that `engine` could not compile a query of the bucket
  /// (NotSupported): it ranks last there if it has no observation yet.
  void MarkUnsupported(uint32_t bucket_key, Engine engine);

  /// Applies one document to all three engines (inserting or deleting it)
  /// and the name statistics, then republishes the composite snapshot.
  Status FanOut(const xml::Node& root, uint64_t doc_id, bool insert);

  /// Pins every engine's current version plus the current name stats into
  /// a fresh composite snapshot stamped `new_epoch` and publishes it.
  /// Called at the end of a successful fan-out, before the epoch bump; a
  /// FAILED fan-out skips it, so the published snapshot stays on the last
  /// cross-engine-consistent state (the header's divergence-is-fatal
  /// contract).
  Status RebuildSnapshot(uint64_t new_epoch);

  QueryableIndex* EngineFor(Engine engine) const;

  VistIndex* const vist_;
  PathIndex* const paths_;
  NodeIndex* const nodes_;

  /// Copy-on-write corpus name statistics feeding selectivity estimates:
  /// the fan-out replaces the whole object under the writer lock; queries
  /// (and snapshots) grab the current one lock-free.
  AtomicSharedPtr<const NameStats> name_stats_;

  /// The published composite snapshot (see RebuildSnapshot).
  AtomicSharedPtr<const RouterSnapshot> snapshot_;

  /// Learned feedback, bucketed by quantized plan features. Leaf lock:
  /// held briefly, never across an engine call.
  Mutex feedback_mu_{LockRank::kRouterFeedback};
  std::unordered_map<uint32_t, Bucket> feedback_ VIST_GUARDED_BY(feedback_mu_);

  std::atomic<int> last_pick_{0};
};

/// The router's pinned read view: one member snapshot per engine, all
/// taken at the end of the same fan-out, plus the name statistics that
/// were current then. Queries resolved against it dispatch each engine
/// its own member, so every attempt reads the same corpus.
class RouterSnapshot : public Snapshot {
 public:
  uint64_t epoch() const override { return epoch_; }

 private:
  friend class Router;
  explicit RouterSnapshot(const QueryableIndex* owner) : Snapshot(owner) {}

  uint64_t epoch_ = 0;
  std::array<std::shared_ptr<const Snapshot>, Router::kNumEngines> engines_;
  std::shared_ptr<const NameStats> name_stats_;
};

}  // namespace exec
}  // namespace vist

#endif  // VIST_EXEC_ROUTER_H_
