#include "exec/queryable_index.h"

namespace vist {

// Out-of-line destructors anchor the vtables in this translation unit.
QueryPlan::~QueryPlan() = default;
Snapshot::~Snapshot() = default;
QueryableIndex::~QueryableIndex() = default;

Result<std::vector<uint64_t>> QueryableIndex::Query(
    std::string_view path, const QueryOptions& options) {
  VIST_ASSIGN_OR_RETURN(std::shared_ptr<const QueryPlan> plan,
                        Prepare(path, options));
  return QueryWithPlan(*plan, options);
}

Result<std::shared_ptr<const Snapshot>> QueryableIndex::GetSnapshot() {
  return Status::NotSupported("this index does not expose snapshots");
}

}  // namespace vist
