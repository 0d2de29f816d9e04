// exec::Router — cost-based dispatch over all three engines.
//
// EXPERIMENTS.md E1 shows no single engine wins: PathIndex dominates
// concrete and value paths (Q1/Q2/Q5), NodeIndex wins selective `//`
// value joins (Q4/Q6), and ViST's structure-encoded matching wins
// branching + wildcard patterns (Q7/Q8). The router keeps all three
// loaded over the same document set, extracts plan features per query
// (exec/plan_features.h), scores each engine with a small cost model, and
// dispatches to the cheapest.
//
// The cost model has two layers:
//
//   * A static prior encoding the E1 shape: concrete paths → PathIndex,
//     `//` without wildcards → NodeIndex, wildcards + `//` or branching →
//     ViST, scaled by name selectivity from router-maintained corpus
//     stats.
//   * A learned layer: after every routed query the router folds the
//     observed QueryProfile cost columns (index_nodes_accessed,
//     range_scans, joins) into a per-plan-feature-bucket EWMA for the
//     engine that ran it. Once every engine has enough observations in a
//     bucket, the EWMAs replace the prior — so a mispredicting prior
//     self-corrects under live traffic (`router.mispick_corrections`).
//     Cold buckets round-robin the engines to gather observations, and a
//     periodic exploration query (RouterOptions::explore_every) keeps the
//     non-preferred engines' estimates fresh.
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

struct RouterOptions {
  /// After a bucket is warm, every Nth query in it runs on the
  /// least-recently-observed engine instead of the predicted-cheapest, so
  /// estimates for the non-preferred engines never go stale. 0 disables
  /// periodic exploration (cold-start round-robin still happens).
  size_t explore_every = 64;
  /// Observations each engine needs in a bucket before its EWMA replaces
  /// the static prior (and before the bucket counts as warm).
  uint64_t min_observations = 3;
};

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

  Router(VistIndex* vist, PathIndex* paths, NodeIndex* nodes,
         const RouterOptions& options = {});

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

  /// Compiles `path` on every engine and bundles the plans with the
  /// extracted features. The routing decision is NOT baked in: each
  /// execution re-picks, so a reused plan keeps benefiting from feedback.
  Result<std::shared_ptr<const QueryPlan>> Prepare(
      std::string_view path, const QueryOptions& options = {}) override;

  /// Executes `plan` on the predicted-cheapest engine; returns sorted
  /// matching doc ids, byte-identical to what any single engine returns.
  /// An engine answering NotSupported (ViST's permutation-expansion cap)
  /// fails over to the next-cheapest engine (`router.failovers`).
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
  };
  struct Bucket {
    std::array<EngineStat, kNumEngines> engines;
    uint64_t queries = 0;
  };

  /// Ranks the engines in `candidates` (bitmask by Engine index) from
  /// predicted-cheapest to dearest for this bucket, applying cold-start
  /// round-robin and periodic exploration. Bumps the bucket's query
  /// count.
  std::vector<Engine> RankEngines(uint32_t bucket_key,
                                  const PlanFeatures& features,
                                  double selectivity, unsigned candidates);

  /// Folds one observed query cost into the bucket's EWMA for `engine`,
  /// counting a mispick correction when the observed argmin changes.
  void RecordObservation(uint32_t bucket_key, Engine engine, double cost);

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
  const RouterOptions options_;

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
