// Versioned roots for copy-on-write shadow paging (docs/DURABILITY.md,
// docs/CONCURRENCY.md "Snapshots").
//
// A `Version` is an immutable snapshot of the pager's meta slots — the
// roots of every B+ tree in the file plus any scalar slots the owning
// engine keeps there. The `VersionManager` publishes versions through an
// atomic shared_ptr: readers pin the current version with `Pin()` and
// from then on touch only pages reachable from that version's roots,
// which a writer never mutates in place. A writer builds the next
// version out-of-place (see BTree's shadow-on-descent COW) and installs
// it with `Commit()`; pages the new version no longer references sit in
// a limbo list until every snapshot that could still reach them has been
// released, then return to the pager freelist (epoch-based reclamation).
//
// Threading contract: `Pin()` is safe from any thread and never blocks
// on the writer. Every other method is writer-side and must be
// serialized externally — in practice by the owning engine's writer
// lock, which is why the manager carries no mutex of its own. One
// VersionManager owns the meta slots of one pager file; all B+ trees in
// that file share it so a multi-tree mutation commits as a single
// version.

#ifndef VIST_STORAGE_VERSION_H_
#define VIST_STORAGE_VERSION_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_set>
#include <vector>

#include "common/atomic_shared_ptr.h"
#include "common/status.h"
#include "storage/pager.h"

namespace vist {

class BufferPool;

/// One immutable published tree state. `slots` mirrors the pager meta
/// slots at publish time; readers resolve tree roots and engine scalars
/// from here instead of the (writer-mutable) pager header.
struct Version {
  /// Internal strictly-monotone publish sequence; orders reclamation.
  uint64_t seq = 0;
  /// The owning engine's QueryableIndex::epoch() value that this version
  /// installs (stamped by the writer at commit, before the bump at the end
  /// of QueryableIndex::Mutate makes it current). Reported by
  /// Snapshot::epoch().
  uint64_t epoch = 0;
  std::array<uint64_t, kNumMetaSlots> slots{};
};

class VersionManager {
 public:
  /// The manager frees retired pages through `pool` (which wraps `pager`).
  VersionManager(Pager* pager, BufferPool* pool);
  ~VersionManager();

  VersionManager(const VersionManager&) = delete;
  VersionManager& operator=(const VersionManager&) = delete;

  /// Publishes version seq 0 from the pager's current meta slots. Must be
  /// called once, before any Pin() or write transaction.
  void Bootstrap();

  /// Returns the current version, pinned: pages reachable from it are not
  /// reclaimed while the returned handle (or any copy) is alive. Safe
  /// from any thread; never waits on a write transaction.
  std::shared_ptr<const Version> Pin() const { return current_.Load(); }

  // --- Writer side. Everything below requires external serialization ---

  /// Opens a write transaction: working slots start as a copy of the
  /// current version's slots.
  void BeginWrite();
  bool in_write_transaction() const { return in_write_; }

  /// The transaction's in-progress view of a meta slot (equals the
  /// current version's slot outside a transaction).
  uint64_t WorkingSlot(int slot) const;
  void SetWorkingSlot(int slot, uint64_t value);

  /// Fresh pages were allocated by the open transaction and are invisible
  /// to every published version, so they may be mutated in place (and are
  /// freed immediately when retired or on abort).
  bool IsFresh(PageId id) const { return fresh_.count(id) != 0; }
  void MarkFresh(PageId id);

  /// Drops a page from the transaction's tree. Fresh pages go straight
  /// back to the freelist; published pages are still readable through
  /// pinned versions and enter limbo at commit.
  Status Retire(PageId id);

  /// Installs the working slots as the next version, stamped with
  /// `epoch`. Persists changed slots through the journaled pager header
  /// first; if that fails the transaction is rolled back and the
  /// previous version stays current (nothing is published). On success
  /// retired pages enter limbo and any limbo pages no snapshot can still
  /// reach are freed; pages that fail to free stay in limbo for the next
  /// ReclaimEligible, and the commit still returns OK.
  Status Commit(uint64_t epoch);

  /// Rolls the transaction back: frees fresh pages, forgets retire
  /// requests (the pages are still referenced by the current version),
  /// resets working slots.
  void Abort();

  /// Frees every limbo page whose retiring version predates all live
  /// pins. Called by Commit; callable from Flush-style paths to drain
  /// pages whose readers have since departed.
  Status ReclaimEligible();

  /// Drains the entire limbo list unconditionally. Call at index close,
  /// when no snapshots can be outstanding, so the on-disk freelist
  /// accounts for every retired page (fsck leak check).
  Status ReclaimAllForClose();

  /// Forgets all reclaim state without touching the (crashed) pager.
  void AbandonForCrash();

 private:
  struct LimboPage {
    PageId id;
    uint64_t retired_seq;  // seq of the version whose commit retired it
  };

  /// Smallest seq among still-pinned published versions (pruning dead
  /// weak_ptrs as a side effect). Limbo entries with
  /// retired_seq <= this value are unreachable from every live pin.
  uint64_t MinLiveSeq();

  Pager* const pager_;
  BufferPool* const pool_;

  AtomicSharedPtr<const Version> current_;

  // Writer-side state (serialized by the owning engine's writer lock).
  bool in_write_ = false;
  uint64_t next_seq_ = 1;
  std::array<uint64_t, kNumMetaSlots> working_slots_{};
  std::unordered_set<PageId> fresh_;
  std::vector<PageId> txn_retired_;
  std::deque<LimboPage> limbo_;
  // Every published version, weakly: a lockable entry means some
  // snapshot still pins it. current_ always appears here (and is always
  // live), but its seq never blocks reclamation — limbo entries carry
  // retired_seq <= current seq by construction, and the comparison is
  // strict on the pinning side: a version with seq S cannot reach pages
  // retired at seq <= S.
  std::vector<std::weak_ptr<const Version>> published_;
};

}  // namespace vist

#endif  // VIST_STORAGE_VERSION_H_
