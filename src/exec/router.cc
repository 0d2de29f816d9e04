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

// Observations each engine needs in a bucket before its observed cost
// ranks it; until then the least-observed cold engine runs first.
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
  uint32_t key = features.has_wildcard ? 1u : 0u;
  key |= (features.has_descendant ? 1u : 0u) << 1;
  key |= std::min<uint32_t>(
             static_cast<uint32_t>(features.branch_predicates), 2u)
         << 2;
  key |= (features.has_value ? 1u : 0u) << 4;
  key |= SelectivityBucket(selectivity) << 5;
  return key;
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

// Compiled form of a routed query: only its features. QueryWithPlan
// picks an engine per execution and compiles the query there, so a plan
// executed more than once keeps following the feedback loop.
class RouterPlan : public QueryPlan {
 public:
  RouterPlan(std::string path, PlanFeatures features)
      : QueryPlan(std::move(path)), features_(std::move(features)) {}

  const PlanFeatures& features() const { return features_; }

 private:
  const PlanFeatures features_;
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
    std::string_view path, const QueryOptions& /*options*/) {
  // Metric reference: docs/OBSERVABILITY.md (exec section).
  static obs::Histogram& extract_us =
      obs::GetHistogram("router.feature_extraction_us");
  PlanFeatures features;
  {
    obs::ScopedTimer timer(extract_us);
    VIST_ASSIGN_OR_RETURN(features, ExtractPlanFeatures(path));
  }
  return std::shared_ptr<const QueryPlan>(
      std::make_shared<RouterPlan>(std::string(path), std::move(features)));
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
  const uint32_t bucket_key =
      BucketKey(features, EstimateSelectivity(features, *snap->name_stats_));
  // Verification needs the document store, which only ViST keeps; the
  // extra verification work would also poison the routing EWMA, so
  // verified queries bypass the feedback loop entirely.
  const std::vector<Engine> ranked =
      options.verify ? std::vector<Engine>{Engine::kVist}
                     : RankEngines(bucket_key);

  Status not_supported = Status::OK();
  for (size_t attempt = 0; attempt < ranked.size(); ++attempt) {
    const Engine pick = ranked[attempt];
    if (attempt > 0) failovers.Increment();
    obs::QueryProfile local;
    QueryOptions engine_options = options;
    engine_options.profile = &local;
    engine_options.snapshot = snap->engines_[static_cast<size_t>(pick)];
    // The engine compiles the query here, against the shared symbol table
    // (internally synchronized and append-only), so only the engine that
    // runs it, and each one that could not, pays a compile.
    auto result = EngineFor(pick)->Query(plan.path(), engine_options);
    if (result.ok()) {
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
      last_pick_.store(static_cast<int>(pick), std::memory_order_relaxed);
      if (!options.verify) {
        RecordObservation(bucket_key, pick, ObservedCost(local));
      }
      if (options.profile != nullptr) MergeProfile(local, options.profile);
      return result;
    }
    // Only NotSupported fails over: an engine that cannot compile the
    // query (ViST's permutation-expansion cap). Everything else — deadline
    // exceeded, I/O — is the query's real outcome; retrying elsewhere
    // would burn the caller's budget.
    if (!result.status().IsNotSupported()) return result.status();
    if (!options.verify) MarkUnsupported(bucket_key, pick);
    not_supported = result.status();
  }
  return not_supported;
}

std::vector<Router::Engine> Router::RankEngines(uint32_t bucket_key) {
  // Metric reference: docs/OBSERVABILITY.md (exec section).
  static obs::Counter& explorations = obs::GetCounter("router.explorations");
  std::vector<Engine> ranked = {Engine::kVist, Engine::kPath, Engine::kNode};
  MutexLock lock(feedback_mu_);
  Bucket& bucket = feedback_[bucket_key];
  ++bucket.queries;
  const auto stat = [&bucket](Engine engine) -> const EngineStat& {
    return bucket.engines[static_cast<size_t>(engine)];
  };
  const auto cold = [&stat](Engine engine) {
    return !stat(engine).unsupported &&
           stat(engine).observations < kMinObservations;
  };
  const auto unsupported = [&stat](Engine engine) {
    return stat(engine).unsupported;
  };
  // Cold engines first, least-observed first, so a cold bucket runs each
  // engine kMinObservations times; then the warm ones, cheapest observed
  // cost first; then those that could not compile the bucket's queries.
  // Ties keep Engine order, so a fresh bucket starts on ViST.
  std::stable_sort(ranked.begin(), ranked.end(), [&](Engine a, Engine b) {
    if (cold(a) != cold(b)) return cold(a);
    if (unsupported(a) != unsupported(b)) return unsupported(b);
    return cold(a) ? stat(a).observations < stat(b).observations
                   : stat(a).ewma_cost < stat(b).ewma_cost;
  });
  // Exploration: a cold engine runs for its observation, and in a warm
  // bucket every kExploreEvery-th query runs the least-observed engine,
  // so no estimate goes stale. The rest of the ranking is preserved — it
  // doubles as the failover order.
  if (cold(ranked.front())) {
    explorations.Increment();
  } else if (bucket.queries % kExploreEvery == 0) {
    const auto least = std::min_element(
        ranked.begin(), ranked.end(), [&](Engine a, Engine b) {
          return stat(a).observations < stat(b).observations;
        });
    if (least != ranked.begin()) {
      std::rotate(ranked.begin(), least, least + 1);
      explorations.Increment();
    }
  }
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
  stat.unsupported = false;
  const int after = observed_argmin(bucket);
  // The argmin flipping means live traffic just proved the previous
  // preference wrong — the self-correction the feedback loop exists for.
  if (before >= 0 && after >= 0 && before != after) {
    corrections.Increment();
  }
}

void Router::MarkUnsupported(uint32_t bucket_key, Engine engine) {
  MutexLock lock(feedback_mu_);
  EngineStat& stat =
      feedback_[bucket_key].engines[static_cast<size_t>(engine)];
  // An engine that has answered in this bucket keeps its history: its
  // queries mix shapes, and failover covers the odd one it cannot compile.
  if (stat.observations == 0) stat.unsupported = true;
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
