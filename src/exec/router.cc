#include "exec/router.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "obs/metrics.h"
#include "seq/sequence.h"

namespace vist {
namespace exec {
namespace {

// Weight of the newest observation in the per-bucket cost EWMA.
constexpr double kEwmaAlpha = 0.25;

// After a bucket is warm, every Nth query in it runs on the
// least-recently-observed engine instead of the predicted-cheapest, so
// estimates for the non-preferred engines never go stale.
constexpr uint64_t kExploreEvery = 64;

// Observations each engine needs in a bucket before its EWMA replaces the
// static prior (and before the bucket counts as warm).
constexpr uint64_t kMinObservations = 3;

// Quantizes selectivity into coarse log10 bands: postings holding ≥10% of
// the corpus behave nothing like the ones holding <0.1%, but finer
// distinctions than a decade don't change which engine wins.
uint32_t SelectivityBucket(double selectivity) {
  if (selectivity >= 0.1) return 0;
  if (selectivity >= 0.01) return 1;
  if (selectivity >= 0.001) return 2;
  return 3;
}

// Plan-feature bucket: (wildcard?, descendant?, branches 0/1/2+, value?,
// selectivity band) — 96 buckets, few enough that each gathers
// observations quickly, expressive enough to separate every E1 regime.
uint32_t BucketKey(const PlanFeatures& features, double selectivity) {
  uint32_t key = features.has_wildcard() ? 1u : 0u;
  key |= (features.has_descendant() ? 1u : 0u) << 1;
  key |= std::min<uint32_t>(
             static_cast<uint32_t>(features.branch_predicates), 2u)
         << 2;
  key |= (features.has_value() ? 1u : 0u) << 4;
  key |= SelectivityBucket(selectivity) << 5;
  return key;
}

// Static prior, in abstract cost units (lower is cheaper). Encodes the E1
// shape: the path baseline owns concrete paths but pays a per-depth-bucket
// expansion under '//'; the node baseline is immune to '//' but a '*'
// forces its full-name scan; ViST pays a high constant (range scans over
// the virtual tree) but degrades mildly in every direction, so it wins
// when wildcards, '//', and branching pile up (Q7/Q8). Selectivity scales
// the scan-bound engines: a fat anchor posting hurts the node index most.
double StaticCost(size_t engine, const PlanFeatures& features,
                  double selectivity) {
  const double wildcards = static_cast<double>(features.wildcards);
  const double descendants = static_cast<double>(features.descendant_axes);
  const double branches = static_cast<double>(features.branch_predicates);
  switch (static_cast<Router::Engine>(engine)) {
    case Router::Engine::kPath:
      return 2 + 12 * wildcards + 50 * descendants + 2 * branches +
             20 * selectivity;
    case Router::Engine::kNode:
      return 15 + 40 * wildcards + 4 * descendants + 2 * branches +
             60 * selectivity;
    case Router::Engine::kVist:
      return 35 + 6 * wildcards + 6 * descendants + 4 * branches +
             10 * selectivity;
  }
  VIST_CHECK(false);
  return 0;
}

// One routed query's observed cost, from the QueryProfile cost columns.
// Wall time dominates because it is the only unit comparable ACROSS
// engines: the counter columns are engine-relative — a node-engine
// "access" on a wildcard query is mostly buffer-pool misses (hit rate
// 0.06 on E1's Q7) while a ViST access is a cached page, so an
// access-count proxy under-bills the node engine by an order of
// magnitude and the feedback loop locks in the mispick. The paper's
// index-node accesses, range scans, and joins remain as a deterministic
// tiebreaker for queries too fast for the clock to separate.
double ObservedCost(const obs::QueryProfile& profile) {
  return 1000.0 * profile.wall_ms +
         0.01 * (static_cast<double>(profile.index_nodes_accessed) +
                 8.0 * static_cast<double>(profile.range_scans) +
                 32.0 * static_cast<double>(profile.joins));
}

// Folds the local profile the router handed the engine into the caller's
// profile (accumulate semantics, like ProfileScope), stamping the engine
// as e.g. "router(path_index)" so EXPLAIN output shows the decision.
void MergeProfile(const obs::QueryProfile& from, obs::QueryProfile* to) {
  to->query = from.query;
  to->engine = "router(" + from.engine + ")";
  to->alternatives += from.alternatives;
  to->index_nodes_accessed += from.index_nodes_accessed;
  to->buffer_pool_hits += from.buffer_pool_hits;
  to->buffer_pool_misses += from.buffer_pool_misses;
  to->range_scans += from.range_scans;
  to->entries_scanned += from.entries_scanned;
  to->nodes_matched += from.nodes_matched;
  to->docid_range_scans += from.docid_range_scans;
  to->joins += from.joins;
  to->candidates += from.candidates;
  to->verified_results += from.verified_results;
  to->verified = to->verified || from.verified;
  to->wall_ms += from.wall_ms;
}

// Adjusts the name-frequency statistics for one document entering
// (insert=true) or leaving the corpus. The router applies this to a
// private copy and publishes the copy (copy-on-write), so queries read
// stats without a lock.
void FoldNameStats(const xml::Node& node, bool insert, NameStats* stats) {
  if (!node.is_text()) {
    uint64_t& freq = stats->frequency[node.name()];
    if (insert) {
      ++freq;
      ++stats->total_elements;
    } else {
      if (freq > 0) --freq;
      if (stats->total_elements > 0) --stats->total_elements;
    }
  }
  for (const auto& child : node.children()) {
    FoldNameStats(*child, insert, stats);
  }
}

// Compiled form of a routed query: the extracted features plus each
// engine's own plan (null where that engine's Prepare failed). The
// routing decision is deliberately NOT part of the plan — QueryWithPlan
// re-picks per execution, so a plan executed more than once keeps
// following the feedback loop.
class RouterPlan : public QueryPlan {
 public:
  RouterPlan(std::string path, PlanFeatures features,
             std::array<std::shared_ptr<const QueryPlan>,
                        Router::kNumEngines>
                 inner)
      : QueryPlan(std::move(path)),
        features_(std::move(features)),
        inner_(std::move(inner)) {}

  const PlanFeatures& features() const { return features_; }
  const std::shared_ptr<const QueryPlan>& inner(size_t engine) const {
    return inner_[engine];
  }

 private:
  const PlanFeatures features_;
  const std::array<std::shared_ptr<const QueryPlan>, Router::kNumEngines>
      inner_;
};

}  // namespace

const char* Router::EngineName(Engine engine) {
  switch (engine) {
    case Engine::kVist:
      return "vist";
    case Engine::kPath:
      return "path";
    case Engine::kNode:
      return "node";
  }
  VIST_CHECK(false);
  return "";
}

Router::Router(VistIndex* vist, PathIndex* paths, NodeIndex* nodes)
    : QueryableIndex(LockRank::kRouter),
      vist_(vist),
      paths_(paths),
      nodes_(nodes) {
  VIST_CHECK(vist != nullptr && paths != nullptr && nodes != nullptr);
  name_stats_.Store(std::make_shared<const NameStats>());
  // Publish the initial composite snapshot (of a possibly pre-loaded
  // corpus) before the router is shared, so every query finds one to pin.
  Status s = RebuildSnapshot(epoch());
  VIST_CHECK(s.ok());  // engine GetSnapshot is a lock-free pin; never fails
}

QueryableIndex* Router::EngineFor(Engine engine) const {
  switch (engine) {
    case Engine::kVist:
      return vist_;
    case Engine::kPath:
      return paths_;
    case Engine::kNode:
      return nodes_;
  }
  VIST_CHECK(false);
  return nullptr;
}

Status Router::InsertDocument(const xml::Node& root, uint64_t doc_id) {
  return FanOut(root, doc_id, /*insert=*/true);
}

Status Router::DeleteDocument(const xml::Node& root, uint64_t doc_id) {
  return FanOut(root, doc_id, /*insert=*/false);
}

Status Router::FanOut(const xml::Node& root, uint64_t doc_id, bool insert) {
  // On failure the engines are divergent (header comment: fatal for this
  // instance) and the snapshot deliberately stays on the last consistent
  // state; Mutate still bumps, so epoch-keyed caches drop their results
  // either way.
  return Mutate([&](uint64_t epoch) -> Status {
    VIST_RETURN_IF_ERROR(insert ? vist_->InsertDocument(root, doc_id)
                                : vist_->DeleteDocument(root, doc_id));
    const Sequence sequence = BuildSequence(root, vist_->symbols());
    VIST_RETURN_IF_ERROR(insert ? paths_->InsertSequence(sequence, doc_id)
                                : paths_->DeleteSequence(sequence, doc_id));
    VIST_RETURN_IF_ERROR(insert ? nodes_->InsertDocument(root, doc_id)
                                : nodes_->DeleteDocument(root, doc_id));
    auto stats = std::make_shared<NameStats>(*name_stats_.Load());
    FoldNameStats(root, insert, stats.get());
    name_stats_.Store(std::move(stats));
    return RebuildSnapshot(epoch);
  });
}

Status Router::RebuildSnapshot(uint64_t new_epoch) {
  auto snap = std::shared_ptr<RouterSnapshot>(new RouterSnapshot(this));
  snap->epoch_ = new_epoch;
  for (size_t i = 0; i < kNumEngines; ++i) {
    VIST_ASSIGN_OR_RETURN(snap->engines_[i],
                          EngineFor(static_cast<Engine>(i))->GetSnapshot());
  }
  snap->name_stats_ = name_stats_.Load();
  snapshot_.Store(std::move(snap));
  return Status::OK();
}

Result<std::shared_ptr<const Snapshot>> Router::GetSnapshot() {
  return std::shared_ptr<const Snapshot>(
      snapshot_.Load());
}

Result<std::shared_ptr<const QueryPlan>> Router::Prepare(
    std::string_view path, const QueryOptions& options) {
  // Metric reference: docs/OBSERVABILITY.md (exec section).
  static obs::Histogram& extract_us =
      obs::GetHistogram("router.feature_extraction_us");
  PlanFeatures features;
  {
    obs::ScopedTimer timer(extract_us);
    VIST_ASSIGN_OR_RETURN(features, ExtractPlanFeatures(path));
  }
  // No router lock: compilation reads only the shared symbol table, which
  // is internally synchronized (and append-only, so a plan compiled while
  // the fan-out interns new names is still correct).
  std::array<std::shared_ptr<const QueryPlan>, kNumEngines> inner;
  Status error = Status::OK();
  size_t prepared = 0;
  for (size_t i = 0; i < kNumEngines; ++i) {
    auto plan =
        EngineFor(static_cast<Engine>(i))->Prepare(path, options);
    if (plan.ok()) {
      inner[i] = std::move(*plan);
      ++prepared;
    } else {
      // An engine that cannot compile the query (ViST's permutation cap)
      // is simply not a routing candidate.
      if (error.ok()) error = plan.status();
    }
  }
  if (prepared == 0) return error;
  return std::shared_ptr<const QueryPlan>(std::make_shared<RouterPlan>(
      std::string(path), std::move(features), std::move(inner)));
}

Result<std::vector<uint64_t>> Router::QueryWithPlan(
    const QueryPlan& plan, const QueryOptions& options) {
  const auto* router_plan = dynamic_cast<const RouterPlan*>(&plan);
  if (router_plan == nullptr) {
    return Status::InvalidArgument("plan was not prepared by a Router");
  }
  // Metric reference: docs/OBSERVABILITY.md (exec section).
  static obs::Counter& picks_vist = obs::GetCounter("router.picks.vist");
  static obs::Counter& picks_path = obs::GetCounter("router.picks.path");
  static obs::Counter& picks_node = obs::GetCounter("router.picks.node");
  static obs::Counter& failovers = obs::GetCounter("router.failovers");
  // No lock: the query pins the published composite snapshot and hands
  // each engine its own member snapshot, so every attempt (failovers
  // included) sees either all or none of any document — which is what
  // makes the router's epoch meaningful to exec::CachingIndex — and a
  // reader never waits on an in-flight fan-out.
  VIST_ASSIGN_OR_RETURN(std::shared_ptr<const RouterSnapshot> snap,
                        ResolveSnapshot<RouterSnapshot>(
                            options, [this] { return snapshot_.Load(); }));
  const PlanFeatures& features = router_plan->features();
  const double selectivity =
      EstimateSelectivity(features, *snap->name_stats_);
  const uint32_t bucket_key = BucketKey(features, selectivity);

  unsigned candidates = 0;
  for (size_t i = 0; i < kNumEngines; ++i) {
    if (router_plan->inner(i) != nullptr) candidates |= 1u << i;
  }
  std::vector<Engine> ranked;
  bool learn = true;
  if (options.verify) {
    // Verification needs the document store, which only ViST keeps; the
    // extra verification work would also poison the routing EWMA, so
    // verified queries bypass the feedback loop entirely.
    if ((candidates & 1u) == 0) {
      return Status::NotSupported(
          "verified queries require the ViST engine");
    }
    ranked = {Engine::kVist};
    learn = false;
  } else {
    ranked = RankEngines(bucket_key, features, selectivity, candidates);
  }
  VIST_CHECK(!ranked.empty());

  Status not_supported = Status::OK();
  for (size_t attempt = 0; attempt < ranked.size(); ++attempt) {
    const Engine pick = ranked[attempt];
    if (attempt > 0) failovers.Increment();
    switch (pick) {
      case Engine::kVist:
        picks_vist.Increment();
        break;
      case Engine::kPath:
        picks_path.Increment();
        break;
      case Engine::kNode:
        picks_node.Increment();
        break;
    }
    obs::QueryProfile local;
    QueryOptions engine_options = options;
    engine_options.profile = &local;
    engine_options.snapshot = snap->engines_[static_cast<size_t>(pick)];
    auto result = EngineFor(pick)->QueryWithPlan(
        *router_plan->inner(static_cast<size_t>(pick)), engine_options);
    if (result.ok()) {
      last_pick_.store(static_cast<int>(pick), std::memory_order_relaxed);
      if (learn) RecordObservation(bucket_key, pick, ObservedCost(local));
      if (options.profile != nullptr) MergeProfile(local, options.profile);
      return result;
    }
    // Only NotSupported fails over (an engine that cannot express the
    // query). Everything else — deadline exceeded, I/O — is the query's
    // real outcome; retrying elsewhere would burn the caller's budget.
    if (!result.status().IsNotSupported()) return result.status();
    not_supported = result.status();
  }
  return not_supported;
}

std::vector<Router::Engine> Router::RankEngines(uint32_t bucket_key,
                                                const PlanFeatures& features,
                                                double selectivity,
                                                unsigned candidates) {
  // Metric reference: docs/OBSERVABILITY.md (exec section).
  static obs::Counter& explorations = obs::GetCounter("router.explorations");
  struct Scored {
    Engine engine;
    double cost = 0;
    uint64_t observations = 0;
  };
  std::vector<Scored> scored;
  MutexLock lock(feedback_mu_);
  Bucket& bucket = feedback_[bucket_key];
  ++bucket.queries;
  for (size_t i = 0; i < kNumEngines; ++i) {
    if ((candidates & (1u << i)) == 0) continue;
    const EngineStat& stat = bucket.engines[i];
    Scored entry;
    entry.engine = static_cast<Engine>(i);
    entry.observations = stat.observations;
    entry.cost = stat.observations >= kMinObservations
                     ? stat.ewma_cost
                     : StaticCost(i, features, selectivity);
    scored.push_back(entry);
  }
  std::stable_sort(scored.begin(), scored.end(),
                   [](const Scored& a, const Scored& b) {
                     return a.cost < b.cost;
                   });
  // Exploration: a cold engine (or, in a warm bucket, the periodic probe)
  // jumps the queue so every engine keeps a live cost estimate. The rest
  // of the ranking is preserved — it doubles as the failover order.
  auto least = std::min_element(scored.begin(), scored.end(),
                                [](const Scored& a, const Scored& b) {
                                  return a.observations < b.observations;
                                });
  const bool probe_due = bucket.queries % kExploreEvery == 0;
  if (least != scored.begin() &&
      (least->observations < kMinObservations || probe_due)) {
    std::rotate(scored.begin(), least, least + 1);
    explorations.Increment();
  }
  std::vector<Engine> ranked;
  ranked.reserve(scored.size());
  for (const Scored& entry : scored) ranked.push_back(entry.engine);
  return ranked;
}

void Router::RecordObservation(uint32_t bucket_key, Engine engine,
                               double cost) {
  // Metric reference: docs/OBSERVABILITY.md (exec section).
  static obs::Counter& corrections =
      obs::GetCounter("router.mispick_corrections");
  // Cheapest engine by observed EWMA, or -1 until at least two engines
  // have enough observations for the comparison to mean anything.
  const auto observed_argmin = [this](const Bucket& bucket)
                                   VIST_REQUIRES(feedback_mu_) -> int {
    int best = -1;
    size_t qualified = 0;
    for (size_t i = 0; i < kNumEngines; ++i) {
      const EngineStat& stat = bucket.engines[i];
      if (stat.observations < kMinObservations) continue;
      ++qualified;
      if (best < 0 || stat.ewma_cost < bucket.engines[best].ewma_cost) {
        best = static_cast<int>(i);
      }
    }
    return qualified >= 2 ? best : -1;
  };
  MutexLock lock(feedback_mu_);
  Bucket& bucket = feedback_[bucket_key];
  const int before = observed_argmin(bucket);
  EngineStat& stat = bucket.engines[static_cast<size_t>(engine)];
  stat.ewma_cost = stat.observations == 0
                       ? cost
                       : kEwmaAlpha * cost + (1 - kEwmaAlpha) * stat.ewma_cost;
  ++stat.observations;
  const int after = observed_argmin(bucket);
  // The argmin flipping means live traffic just proved the previous
  // preference wrong — the self-correction the feedback loop exists for.
  if (before >= 0 && after >= 0 && before != after) {
    corrections.Increment();
  }
}

Result<IndexStats> Router::Stats() {
  // Lock-free: each engine pins its own current version internally, so a
  // concurrent fan-out may land between the three reads. Fine for
  // diagnostics (router.h).
  VIST_ASSIGN_OR_RETURN(IndexStats stats, vist_->Stats());
  VIST_ASSIGN_OR_RETURN(IndexStats path_stats, paths_->Stats());
  VIST_ASSIGN_OR_RETURN(IndexStats node_stats, nodes_->Stats());
  stats.size_bytes += path_stats.size_bytes + node_stats.size_bytes;
  stats.max_depth = std::max(
      stats.max_depth, std::max(path_stats.max_depth, node_stats.max_depth));
  return stats;
}

Status Router::Flush() {
  return Mutate([&](uint64_t epoch) -> Status {
    VIST_RETURN_IF_ERROR(vist_->Flush());
    VIST_RETURN_IF_ERROR(paths_->Flush());
    VIST_RETURN_IF_ERROR(nodes_->Flush());
    // Re-pin so the published snapshot stops holding pre-flush versions
    // alive (pinned versions keep their superseded pages off the freelist).
    return RebuildSnapshot(epoch);
  });
}

}  // namespace exec
}  // namespace vist
