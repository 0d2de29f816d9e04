#include "exec/caching_index.h"

#include <algorithm>
#include <list>
#include <map>
#include <utility>

#include "common/hash.h"
#include "common/slice.h"
#include "obs/metrics.h"
#include "obs/query_profile.h"

namespace vist {
namespace exec {
namespace {

// Metric reference: docs/OBSERVABILITY.md (cache section). Global across
// all CachingIndex instances, like every other instrument in the registry.
struct CacheMetrics {
  obs::Counter& result_hits = obs::GetCounter("cache.result.hits");
  obs::Counter& result_misses = obs::GetCounter("cache.result.misses");
  obs::Counter& result_evictions = obs::GetCounter("cache.result.evictions");
  obs::Counter& result_invalidated =
      obs::GetCounter("cache.result.invalidated_entries");
  obs::Counter& result_insert_races =
      obs::GetCounter("cache.result.insert_races");
  obs::Counter& result_snapshot_bypass =
      obs::GetCounter("cache.result.snapshot_bypass");
  obs::Gauge& result_bytes = obs::GetGauge("cache.result.bytes");

  static CacheMetrics& Get() {
    static CacheMetrics metrics;
    return metrics;
  }
};

// Every QueryOptions field that changes what a query returns goes into
// the key; the profile sink explicitly does not, and neither does the
// deadline — it changes whether a query completes, never what a
// completed query returns (expired queries fail, and ServeResult
// only caches ok() results, so a partial answer can never be inserted).
std::string CacheKey(std::string_view normalized_path,
                     const QueryOptions& options) {
  std::string key(normalized_path);
  key.push_back('\0');
  key.push_back(options.verify ? 'v' : '-');
  return key;
}

// Approximate heap cost of one result entry: the two key copies (LRU list
// + table), the doc ids, and the list/map node overhead.
size_t ResultEntryBytes(const std::string& key,
                        const std::vector<uint64_t>& docs) {
  return 2 * key.size() + docs.size() * sizeof(uint64_t) + 96;
}

bool IsPathSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' ||
         c == '\v';
}

}  // namespace

struct CachingIndex::ResultShard {
  struct Entry {
    std::string key;
    std::vector<uint64_t> docs;
    size_t bytes = 0;
  };

  Mutex mu{LockRank::kCacheShard};
  /// Epoch the shard's entries are valid for (see AdvanceLocked).
  uint64_t epoch VIST_GUARDED_BY(mu) = 0;
  size_t bytes VIST_GUARDED_BY(mu) = 0;
  /// Front is most recently used.
  std::list<Entry> lru VIST_GUARDED_BY(mu);
  std::map<std::string, std::list<Entry>::iterator, std::less<>> table
      VIST_GUARDED_BY(mu);

  /// Drops every entry. Callers adjust `epoch` themselves.
  void ClearLocked(bool count_invalidated) VIST_REQUIRES(mu) {
    if (lru.empty()) return;
    if (count_invalidated) {
      CacheMetrics::Get().result_invalidated.Increment(lru.size());
    }
    CacheMetrics::Get().result_bytes.Add(-static_cast<int64_t>(bytes));
    table.clear();
    lru.clear();
    bytes = 0;
  }

  /// The wholesale invalidation rule, for a caller that read `e` from the
  /// wrapped index: a shard stamped with an older epoch is cleared and
  /// moves to `e`. Returns false, leaving the shard untouched, when a
  /// newer epoch already owns it — the caller read `e` before a mutation
  /// that another caller has since observed.
  bool AdvanceLocked(uint64_t e) VIST_REQUIRES(mu) {
    if (epoch > e) return false;
    if (epoch < e) {
      ClearLocked(/*count_invalidated=*/true);
      epoch = e;
    }
    return true;
  }
};

namespace {

template <typename Shard>
std::vector<std::unique_ptr<Shard>> MakeShards(size_t count) {
  std::vector<std::unique_ptr<Shard>> shards;
  shards.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    shards.push_back(std::make_unique<Shard>());
  }
  return shards;
}

}  // namespace

CachingIndex::CachingIndex(QueryableIndex* wrapped,
                           const CachingIndexOptions& options)
    : wrapped_(wrapped),
      result_budget_per_shard_(std::max<size_t>(
          256,
          options.result_capacity_bytes / std::max<size_t>(1, options.shards))),
      result_shards_(
          MakeShards<ResultShard>(std::max<size_t>(1, options.shards))) {}

CachingIndex::~CachingIndex() { Clear(); }

CachingIndex::ResultShard& CachingIndex::result_shard(
    std::string_view key) const {
  return *result_shards_[Hash64(Slice(key.data(), key.size())) %
                         result_shards_.size()];
}

std::string CachingIndex::NormalizePath(std::string_view path) {
  // Structural characters next to which the parser always skips
  // whitespace, with no token that could absorb them.
  auto always_separates = [](char c) {
    return c == '[' || c == ']' || c == '=' || c == '*' || c == '@';
  };
  std::string out;
  out.reserve(path.size());
  char quote = 0;
  size_t i = 0;
  while (i < path.size()) {
    const char c = path[i];
    if (quote != 0) {
      out.push_back(c);
      if (c == quote) quote = 0;
      ++i;
      continue;
    }
    if (c == '\'' || c == '"') {
      quote = c;
      out.push_back(c);
      ++i;
      continue;
    }
    if (!IsPathSpace(c)) {
      out.push_back(c);
      ++i;
      continue;
    }
    size_t j = i;
    while (j < path.size() && IsPathSpace(path[j])) ++j;
    // Decide the whole whitespace run at once from its neighbors.
    const bool at_boundary = out.empty() || j == path.size();
    const char prev = out.empty() ? '\0' : out.back();
    const char next = j == path.size() ? '\0' : path[j];
    bool strip = false;
    if (at_boundary) {
      strip = true;
    } else if (always_separates(prev) || always_separates(next)) {
      strip = true;
    } else if (prev == '/') {
      strip = next != '/';  // never synthesize a '//' token
    } else if (next == '/') {
      strip = prev != '.';  // never synthesize a './/' token
    }
    if (!strip) out.push_back(' ');  // canonicalize the kept run to one ' '
    i = j;
  }
  return out;
}

bool CachingIndex::LookupResult(const std::string& key, uint64_t current_epoch,
                                std::vector<uint64_t>* out) {
  ResultShard& shard = result_shard(key);
  MutexLock lock(shard.mu);
  if (!shard.AdvanceLocked(current_epoch)) return false;
  auto it = shard.table.find(key);
  if (it == shard.table.end()) return false;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  *out = it->second->docs;
  return true;
}

void CachingIndex::InsertResult(const std::string& key,
                                uint64_t epoch_at_query,
                                const std::vector<uint64_t>& docs) {
  const size_t entry_bytes = ResultEntryBytes(key, docs);
  // An entry bigger than a whole shard's budget would evict everything and
  // then be evicted itself by the next insert; don't cache it at all.
  if (entry_bytes > result_budget_per_shard_) return;
  CacheMetrics& metrics = CacheMetrics::Get();
  ResultShard& shard = result_shard(key);
  MutexLock lock(shard.mu);
  if (!shard.AdvanceLocked(epoch_at_query)) return;
  if (shard.table.find(key) != shard.table.end()) return;  // racing fill
  shard.lru.push_front(ResultShard::Entry{key, docs, entry_bytes});
  shard.table.emplace(key, shard.lru.begin());
  shard.bytes += entry_bytes;
  metrics.result_bytes.Add(static_cast<int64_t>(entry_bytes));
  while (shard.bytes > result_budget_per_shard_) {
    ResultShard::Entry& victim = shard.lru.back();
    shard.bytes -= victim.bytes;
    metrics.result_bytes.Add(-static_cast<int64_t>(victim.bytes));
    shard.table.erase(victim.key);
    shard.lru.pop_back();
    metrics.result_evictions.Increment();
  }
}

void CachingIndex::Clear() {
  for (const auto& shard : result_shards_) {
    MutexLock lock(shard->mu);
    shard->ClearLocked(/*count_invalidated=*/false);
  }
}

template <typename Execute>
Result<std::vector<uint64_t>> CachingIndex::ServeResult(
    const std::string& key, const QueryOptions& options, Execute&& execute) {
  CacheMetrics& metrics = CacheMetrics::Get();
  if (options.snapshot != nullptr) {
    // An explicit snapshot names a pinned (possibly old) version; the
    // result tier only holds current-epoch answers, so neither a lookup
    // nor an insert is sound.
    metrics.result_snapshot_bypass.Increment();
    if (options.profile != nullptr) {
      options.profile->result_cache_hit = false;
    }
    return execute();
  }
  // e1 is read before the query runs. The wrapped index bumps its epoch
  // while holding the writer lock, so e1 == e2 (below) proves no mutation
  // completed anywhere inside this window — the snapshot the query
  // observed is the snapshot named by e1 (docs/SERVING.md).
  const uint64_t e1 = wrapped_->epoch();
  std::vector<uint64_t> docs;
  if (LookupResult(key, e1, &docs)) {
    metrics.result_hits.Increment();
    obs::QueryProfile* profile = options.profile;
    // The scope attributes the (storage-free) hit's wall time exactly.
    obs::ProfileScope scope(profile);
    if (profile != nullptr) {
      profile->result_cache_hit = true;
      profile->candidates += docs.size();
      profile->verified_results += docs.size();
    }
    return docs;
  }
  metrics.result_misses.Increment();
  VIST_ASSIGN_OR_RETURN(std::vector<uint64_t> result, execute());
  if (options.profile != nullptr) options.profile->result_cache_hit = false;
  if (wrapped_->epoch() == e1) {
    InsertResult(key, e1, result);
  } else {
    // A mutation raced the query; the result may belong to either side of
    // it, so it is returned but not cached.
    metrics.result_insert_races.Increment();
  }
  return result;
}

// Looks the result up before compiling anything, so a hit costs no
// Prepare; a miss compiles and executes through the wrapped index.
Result<std::vector<uint64_t>> CachingIndex::Query(std::string_view path,
                                                  const QueryOptions& options) {
  const std::string key = CacheKey(NormalizePath(path), options);
  return ServeResult(key, options, [&]() -> Result<std::vector<uint64_t>> {
    VIST_ASSIGN_OR_RETURN(std::shared_ptr<const QueryPlan> plan,
                          wrapped_->Prepare(path, options));
    return wrapped_->QueryWithPlan(*plan, options);
  });
}

Result<std::shared_ptr<const QueryPlan>> CachingIndex::Prepare(
    std::string_view path, const QueryOptions& options) {
  return wrapped_->Prepare(path, options);
}

Result<std::vector<uint64_t>> CachingIndex::QueryWithPlan(
    const QueryPlan& plan, const QueryOptions& options) {
  const std::string key = CacheKey(NormalizePath(plan.path()), options);
  return ServeResult(key, options,
                     [&]() -> Result<std::vector<uint64_t>> {
                       return wrapped_->QueryWithPlan(plan, options);
                     });
}

Result<IndexStats> CachingIndex::Stats() { return wrapped_->Stats(); }

// Flush mutates (and therefore epoch-bumps) the wrapped index, which
// already invalidates the result tier; nothing to do locally.
Status CachingIndex::Flush() { return wrapped_->Flush(); }

}  // namespace exec
}  // namespace vist
