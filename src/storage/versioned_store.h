// VersionedStore: one page file under copy-on-write versioning — the
// storage core every index engine stands on.
//
// ViST is built entirely from ordinary B+ trees (§3.4), and so are the
// static RIST index (§3.3) and both §4 baselines. Each engine's data is
// one page file holding a few B+ trees whose roots (plus a few engine
// scalars) live in the file's meta slots. The store owns that whole
// stack — Pager → BufferPool → VersionManager → BTrees — and is the one
// place a write transaction is opened, installed, or rolled back:
//
//   VIST_ASSIGN_OR_RETURN(store, VersionedStore::Open(path, options));
//   VIST_RETURN_IF_ERROR(store->Write(/*epoch=*/0, [&]() -> Status {
//     VIST_ASSIGN_OR_RETURN(tree, store->CreateTree(/*slot=*/0));
//     return Status::OK();
//   }));
//   VIST_RETURN_IF_ERROR(store->Write(epoch, [&] { return tree->Put(k, v); }));
//
// Readers Pin() the current version and read through BTree::ViewAt.
//
// Threading: Pin() and size_bytes() are safe from any thread and never
// wait on a writer. Everything else is writer-side and must be
// serialized by the owner — in practice by QueryableIndex::Mutate's writer
// lock.

#ifndef VIST_STORAGE_VERSIONED_STORE_H_
#define VIST_STORAGE_VERSIONED_STORE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "common/env.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/btree.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"
#include "storage/version.h"

namespace vist {

/// How to open a store's page file. Only page_size is a property of the
/// file (a new file's; an existing one keeps its own); the rest are
/// runtime settings.
struct StoreOptions {
  /// Bytes per page of a new file (the paper uses 2 KB Berkeley DB pages).
  uint32_t page_size = 4096;
  /// Buffer pool capacity in pages, raised to at least
  /// VersionedStore::kMinPoolPages. 16384 x 4 KB = 64 MB, a modest cache
  /// by today's standards.
  size_t buffer_pool_pages = 16384;
  /// What a crash may cost: kProcessCrash keeps batches atomic against
  /// process crashes; kPowerLoss adds the fsync barriers that survive a
  /// power cut. See docs/DURABILITY.md.
  DurabilityLevel durability = DurabilityLevel::kProcessCrash;
  /// File-system seam for the page file and its journal; null means
  /// Env::Default(). Must outlive the store.
  Env* env = nullptr;
};

class VersionedStore {
 public:
  /// The smallest buffer pool the store runs with, whatever
  /// StoreOptions::buffer_pool_pages asks for.
  static constexpr size_t kMinPoolPages = 256;

  /// Opens the page file at `path` and publishes its committed meta slots
  /// as the first version. An absent file is created, unless `create` is
  /// false: then a missing or empty file is NotFound.
  static Result<std::unique_ptr<VersionedStore>> Open(
      const std::string& path, const StoreOptions& options,
      bool create = true);

  /// Frees every limbo page, writes back dirty pages and syncs — unless
  /// SimulateCrashForTesting ran. No snapshot may outlive the store.
  ~VersionedStore() = default;

  VersionedStore(const VersionedStore&) = delete;
  VersionedStore& operator=(const VersionedStore&) = delete;

  /// Creates an empty B+ tree rooted in meta slot `slot`. Runs inside a
  /// Write body, so the root is installed with that transaction. The
  /// store owns the tree.
  Result<BTree*> CreateTree(int slot);
  /// Opens the B+ tree whose committed root lives in meta slot `slot`.
  Result<BTree*> OpenTree(int slot);

  /// Runs `body` (a callable returning Status) as one copy-on-write write
  /// transaction. When it succeeds the transaction's version is installed,
  /// stamped `epoch`; when it fails, or installing fails, the transaction
  /// is rolled back and the previous version stays current. So either the
  /// whole transaction is published or none of it.
  template <typename Body>
  Status Write(uint64_t epoch, Body&& body) {
    versions_->BeginWrite();
    Status s = body();
    if (!s.ok()) {
      versions_->Abort();
      return s;
    }
    return versions_->Commit(epoch);  // rolls back itself on failure
  }

  /// The current version, pinned (see VersionManager::Pin).
  std::shared_ptr<const Version> Pin() const { return versions_->Pin(); }

  /// An engine scalar kept in meta slot `slot`, as the open transaction
  /// sees it (outside Write: the current version's value).
  uint64_t WorkingSlot(int slot) const { return versions_->WorkingSlot(slot); }
  void SetWorkingSlot(int slot, uint64_t value) {
    versions_->SetWorkingSlot(slot, value);
  }

  /// Makes every installed version durable: returns the limbo pages no
  /// snapshot can still reach to the freelist (so the synced freelist
  /// accounts for them), writes back dirty pages, and syncs the file.
  Status Flush();

  /// The page file's page size: an existing file's own, whatever
  /// StoreOptions::page_size asked for.
  uint32_t page_size() const { return pager_->page_size(); }

  /// Page-file size in bytes.
  uint64_t size_bytes() const {
    return pager_->page_count() * pager_->page_size();
  }

  /// Test hook: abandons all unflushed state as a crashed process would.
  /// The store is unusable afterwards; reopen the file.
  void SimulateCrashForTesting();
  bool crashed() const { return crashed_; }

 private:
  VersionedStore(std::unique_ptr<Pager> pager, size_t pool_pages);

  std::unique_ptr<Pager> pager_;
  std::unique_ptr<BufferPool> pool_;
  // Declared after pool_ (destroyed first): reclamation frees through it.
  std::unique_ptr<VersionManager> versions_;
  std::array<std::unique_ptr<BTree>, kNumMetaSlots> trees_;
  bool crashed_ = false;
};

}  // namespace vist

#endif  // VIST_STORAGE_VERSIONED_STORE_H_
