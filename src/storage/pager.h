// Pager: fixed-size page I/O over a single file, with a free-page list, a
// small metadata area for index roots, and crash safety via a rollback
// journal.
//
// File layout:
//   page 0           header (magic, page size, page count, freelist head,
//                    16 user metadata slots); a new file's header is first
//                    written by its first Sync()
//   pages 1..N-1     data pages, allocated/freed through the pager
//
// Every page — header included — ends in an 8-byte trailer holding a
// 64-bit checksum of the rest of the page, seeded with the page id, so a
// torn write or flipped bit surfaces as Status::Corruption (naming the
// page and file offset) on the very next ReadPage instead of as undefined
// behaviour deep in a tree walk. Callers therefore see
// usable_page_size() == page_size() - kPageTrailerSize bytes per page.
//
// Freed pages are chained into a freelist through their first 8 bytes, so
// space is reused before the file grows. All I/O goes through a vist::Env
// (common/env.h), which is how the fault-injection tests drive every
// recovery path; transient I/O errors are retried a few times
// (`storage.io_retries`) before surfacing. The pager performs raw
// positional I/O; caching and pinning live in BufferPool.
//
// Crash safety (SQLite-style undo journal): the first mutation after open
// or commit starts a batch; the pre-image of every page overwritten during
// the batch is appended to <path>.journal (checksummed), together with a
// snapshot of the header state. Sync() commits the batch and removes the
// journal; Open() rolls back any journal left behind by a crash, restoring
// the last committed state. Two durability levels:
//
//   * kProcessCrash — journal writes reach the OS page cache but are not
//     fsynced until commit: batches are atomic against process crashes
//     (the kernel retains completed writes), not against power loss.
//   * kPowerLoss   — the journal is fsynced (and the directory fsynced so
//     the journal is findable) before the first overwrite of any committed
//     page, and the directory is fsynced again when the journal is removed
//     at commit, closing the power-loss window. See docs/DURABILITY.md.
//
// Threading (docs/CONCURRENCY.md): ReadPage is lock-free — positional reads
// on the underlying file are independent system calls, and the only shared
// state it touches (the page count bound) is an atomic. Every mutating
// entry point (WritePage, AllocatePage, FreePage, SetMetaSlot, Sync) and
// GetMetaSlot serialize on an internal mutex, which protects the freelist,
// metadata slots, and all journal/batch state; this keeps eviction
// writebacks issued from concurrent reader threads safe even though index
// *writes* are additionally serialized by the index-level writer lock. The
// pager mutex sits below the buffer pool's shard mutexes in the lock order
// and no pager call ever takes a pool latch, so the order cannot invert.

#ifndef VIST_STORAGE_PAGER_H_
#define VIST_STORAGE_PAGER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <string>

#include "common/env.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace vist {

/// 1-based data page number; 0 means "no page" (the header occupies the
/// physical slot 0 and is never exposed as a PageId).
using PageId = uint64_t;
inline constexpr PageId kInvalidPageId = 0;

/// Bytes at the end of every page reserved for the page checksum.
inline constexpr uint32_t kPageTrailerSize = 8;

/// What a crash may cost (see the file comment / docs/DURABILITY.md).
enum class DurabilityLevel {
  kProcessCrash,  // atomic batches vs. process crashes (no fsync barriers)
  kPowerLoss,     // atomic batches vs. power loss (journal + dir fsyncs)
};

struct PagerOptions {
  /// Bytes per page of a new file. The paper's experiments use 2 KB
  /// Berkeley DB pages; we default to 4 KB and make it configurable for
  /// the size benchmarks. An existing file keeps the page size its header
  /// records.
  uint32_t page_size = 4096;
  DurabilityLevel durability = DurabilityLevel::kProcessCrash;
  /// File-system seam; null means Env::Default(). The env must outlive the
  /// pager.
  Env* env = nullptr;
  /// False: open only a file that holds pages; a missing or empty one is
  /// NotFound, and nothing is created.
  bool create = true;
};

/// Number of user metadata slots in the header page (each one PageId wide).
/// An index stores the root pages of its component B+ trees here.
inline constexpr int kNumMetaSlots = 16;

/// Checksum of page `id`'s bytes [0, page_size - kPageTrailerSize), as
/// stored in the page trailer. Exposed for offline checkers (fsck).
uint64_t ComputePageChecksum(PageId id, const char* page, uint32_t page_size);

/// Decoded header page (page 0). Exposed for offline checkers.
struct PagerFileHeader {
  uint32_t page_size = 0;
  uint64_t page_count = 0;
  PageId freelist_head = kInvalidPageId;
  PageId meta_slots[kNumMetaSlots] = {};
};

/// Verifies the checksum, magic, and field sanity of a header page image
/// (`page` must hold `page_size` bytes read from file offset 0).
Result<PagerFileHeader> DecodePagerHeader(const char* page,
                                          uint32_t page_size);

class Pager {
 public:
  /// Opens (creating if absent, unless `options.create` is false) the page
  /// file at `path`. An existing file is read at the page size its header
  /// records. Damage (truncated header, out-of-range page size, short
  /// final page, mangled journal) surfaces as Status::Corruption.
  static Result<std::unique_ptr<Pager>> Open(const std::string& path,
                                             const PagerOptions& options);

  ~Pager();

  Pager(const Pager&) = delete;
  Pager& operator=(const Pager&) = delete;

  /// Reads page `id` into `buf` (page_size() bytes) and verifies its
  /// checksum; a mismatch is Status::Corruption naming the page and offset.
  /// Safe to call from any number of threads concurrently with each other
  /// and with the mutating entry points.
  Status ReadPage(PageId id, char* buf);
  /// Writes page `id` from `buf` (page_size() bytes); the trailer is
  /// stamped by the pager, so the caller's trailer bytes are ignored.
  Status WritePage(PageId id, const char* buf) VIST_EXCLUDES(mu_);

  /// Returns a fresh page id, reusing a freed page when available. The
  /// page's previous contents are unspecified; callers initialize it.
  Result<PageId> AllocatePage() VIST_EXCLUDES(mu_);
  /// Returns page `id` to the freelist.
  Status FreePage(PageId id) VIST_EXCLUDES(mu_);

  /// User metadata slots (persisted in the header on Sync/close). A failed
  /// SetMetaSlot leaves the slot unchanged: the batch's journal snapshot
  /// could not be taken, so applying the mutation anyway would commit a
  /// change whose pre-image is unrecoverable after a crash.
  PageId GetMetaSlot(int slot) const VIST_EXCLUDES(mu_);
  Status SetMetaSlot(int slot, PageId id) VIST_EXCLUDES(mu_);

  uint32_t page_size() const { return page_size_; }
  /// Bytes per page available to callers (page_size minus the checksum
  /// trailer). Page-content layouts must fit in this.
  uint32_t usable_page_size() const { return page_size_ - kPageTrailerSize; }
  /// Total pages in the file, header included (so also the file size in
  /// pages); used by the index-size experiments.
  uint64_t page_count() const {
    return page_count_.load(std::memory_order_acquire);
  }
  /// Head of the free-page chain (kInvalidPageId when empty); exposed for
  /// the offline checker's freelist walk.
  PageId freelist_head() const VIST_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return freelist_head_;
  }

  DurabilityLevel durability() const { return durability_; }

  /// Commits the current batch: flushes the header, fdatasyncs the file,
  /// and discards the rollback journal. State as of this call survives a
  /// crash (of the kind the durability level covers).
  Status Sync() VIST_EXCLUDES(mu_);

  /// Test hook: drops the file handles without committing, as a crashed
  /// process would. The pager is unusable afterwards; reopening the path
  /// rolls back to the last Sync().
  void SimulateCrashForTesting() VIST_EXCLUDES(mu_);

 private:
  Pager(Env* env, std::unique_ptr<File> file, std::string path,
        const PagerOptions& options);

  Status WriteHeader() VIST_REQUIRES(mu_);
  Status ReadHeader() VIST_REQUIRES(mu_);

  /// WritePage body; mu_ must be held (AllocatePage/FreePage write pages
  /// while already holding the mutex, so the public entry point can't be
  /// reused there).
  Status WritePageLocked(PageId id, const char* buf) VIST_REQUIRES(mu_);

  /// Starts a batch if none is active (snapshot header, create journal).
  Status EnsureBatch() VIST_REQUIRES(mu_);
  /// Appends page `id`'s pre-image to the journal if it both existed at
  /// batch start and has not been journaled yet.
  Status JournalPage(PageId id) VIST_REQUIRES(mu_);
  /// kPowerLoss barrier: before overwriting committed page `id`, make the
  /// journal (and its directory entry) durable.
  Status SyncJournalForOverwrite(PageId id) VIST_REQUIRES(mu_);
  /// Applies a leftover journal (crash recovery) at the page size the
  /// journal records; called from Open.
  static Status RecoverFromJournal(Env* env, File* file,
                                   const std::string& path,
                                   DurabilityLevel durability);

  Env* env_;
  std::unique_ptr<File> file_;
  std::string path_;
  std::string dir_;  // parent directory of path_, for SyncDir
  uint32_t page_size_;
  DurabilityLevel durability_;

  /// Serializes every mutating entry point (and the meta-slot accessors).
  /// ReadPage does not take it. Everything below is guarded by mu_ except
  /// page_count_, which is additionally atomic so ReadPage can bounds-check
  /// without the lock.
  mutable Mutex mu_{LockRank::kPagerMutation};
  std::atomic<uint64_t> page_count_{1};  // header page
  PageId freelist_head_ VIST_GUARDED_BY(mu_) = kInvalidPageId;
  PageId meta_slots_[kNumMetaSlots] VIST_GUARDED_BY(mu_) = {};
  bool header_dirty_ VIST_GUARDED_BY(mu_) = false;
  bool crashed_ VIST_GUARDED_BY(mu_) = false;

  std::unique_ptr<File> journal_ VIST_GUARDED_BY(mu_);
  bool in_batch_ VIST_GUARDED_BY(mu_) = false;
  // Appended since last journal fsync / dir fsynced since journal creation.
  bool journal_dirty_ VIST_GUARDED_BY(mu_) = false;
  bool journal_dir_synced_ VIST_GUARDED_BY(mu_) = false;
  uint64_t batch_start_page_count_ VIST_GUARDED_BY(mu_) = 0;
  std::set<PageId> journaled_ VIST_GUARDED_BY(mu_);
  // Trailer-stamping buffer for WritePage.
  std::string write_scratch_ VIST_GUARDED_BY(mu_);
};

}  // namespace vist

#endif  // VIST_STORAGE_PAGER_H_
