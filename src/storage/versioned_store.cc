#include "storage/versioned_store.h"

#include <algorithm>

#include "common/logging.h"

namespace vist {

VersionedStore::VersionedStore(std::unique_ptr<Pager> pager,
                               size_t pool_pages)
    : pager_(std::move(pager)),
      pool_(std::make_unique<BufferPool>(pager_.get(), pool_pages)),
      versions_(std::make_unique<VersionManager>(pager_.get(), pool_.get())) {
  versions_->Bootstrap();
}

Result<std::unique_ptr<VersionedStore>> VersionedStore::Open(
    const std::string& path, const StoreOptions& options, bool create) {
  PagerOptions pager_options;
  pager_options.page_size = options.page_size;
  pager_options.durability = options.durability;
  pager_options.env = options.env;
  pager_options.create = create;
  VIST_ASSIGN_OR_RETURN(std::unique_ptr<Pager> pager,
                        Pager::Open(path, pager_options));
  return std::unique_ptr<VersionedStore>(new VersionedStore(
      std::move(pager),
      std::max<size_t>(options.buffer_pool_pages, kMinPoolPages)));
}

Result<BTree*> VersionedStore::CreateTree(int slot) {
  VIST_CHECK(trees_.at(slot) == nullptr);
  VIST_ASSIGN_OR_RETURN(
      trees_[slot],
      BTree::Create(pager_.get(), pool_.get(), versions_.get(), slot));
  return trees_[slot].get();
}

Result<BTree*> VersionedStore::OpenTree(int slot) {
  VIST_CHECK(trees_.at(slot) == nullptr);
  VIST_ASSIGN_OR_RETURN(
      trees_[slot],
      BTree::Open(pager_.get(), pool_.get(), versions_.get(), slot));
  return trees_[slot].get();
}

Status VersionedStore::Flush() {
  // Limbo pages whose last pinning reader has departed go back to the
  // freelist first, so the synced freelist accounts for them (the rest
  // drain at a later Flush or at close). This is also where a reclaim
  // that failed after a commit is retried and reported.
  VIST_RETURN_IF_ERROR(versions_->ReclaimEligible());
  VIST_RETURN_IF_ERROR(pool_->FlushAll());
  return pager_->Sync();
}

void VersionedStore::SimulateCrashForTesting() {
  crashed_ = true;
  // Unflushed pages never reach disk; orphan the limbo list too (the
  // journal rollback on reopen returns the whole batch, limbo included).
  versions_->AbandonForCrash();
  pool_->SimulateCrashForTesting();
  pager_->SimulateCrashForTesting();
}

}  // namespace vist
