#include "obs/query_profile.h"

#include <sstream>

#include "obs/metrics.h"

namespace vist {
namespace obs {

std::string QueryProfile::Dump() const {
  std::ostringstream out;
  out << "QueryProfile";
  if (!engine.empty()) out << " [" << engine << "]";
  if (!query.empty()) out << " " << query;
  out << "\n";
  out << "  wall_ms:              " << wall_ms << "\n";
  out << "  alternatives:         " << alternatives << "\n";
  out << "  index_nodes_accessed: " << index_nodes_accessed << "\n";
  out << "  buffer_pool:          " << buffer_pool_hits << " hits, "
      << buffer_pool_misses << " misses (hit_rate " << hit_rate() << ")\n";
  out << "  range_scans:          " << range_scans << "\n";
  out << "  entries_scanned:      " << entries_scanned << "\n";
  out << "  nodes_matched:        " << nodes_matched << "\n";
  out << "  docid_range_scans:    " << docid_range_scans << "\n";
  out << "  joins:                " << joins << "\n";
  out << "  candidates:           " << candidates << "\n";
  out << "  verified_results:     " << verified_results
      << (verified ? " (verified)" : " (no verification stage)") << "\n";
  out << "  cache:                result_hit=" << (result_cache_hit ? 1 : 0)
      << "\n";
  return out.str();
}

ProfileScope::ProfileScope(QueryProfile* profile) : profile_(profile) {
  if (profile_ == nullptr) return;
  // This thread's mirrors of the storage counters: unlike the global
  // instruments they are untouched by concurrent queries, so the deltas
  // below attribute exactly this query's work.
  const ThreadStorageCounters& counters = ThisThreadStorageCounters();
  start_node_accesses_ = counters.btree_node_accesses;
  start_pool_hits_ = counters.buffer_pool_hits;
  start_pool_misses_ = counters.buffer_pool_misses;
  start_ = std::chrono::steady_clock::now();
}

void ProfileScope::Finish() {
  if (profile_ == nullptr || finished_) return;
  finished_ = true;
  const ThreadStorageCounters& counters = ThisThreadStorageCounters();
  profile_->index_nodes_accessed +=
      counters.btree_node_accesses - start_node_accesses_;
  profile_->buffer_pool_hits += counters.buffer_pool_hits - start_pool_hits_;
  profile_->buffer_pool_misses +=
      counters.buffer_pool_misses - start_pool_misses_;
  profile_->wall_ms += std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - start_)
                           .count();
}

}  // namespace obs
}  // namespace vist
