// A disk-based B+ tree over byte-ordered keys (the paper's substrate: it
// uses Berkeley DB B+ trees [20]; this is our from-scratch equivalent).
//
// Properties:
//  * variable-length keys and values (bounded by NodePage::MaxCellSize)
//  * upsert Put, point Get, Delete, and forward range iterators
//  * copy-on-write page updates: a writer never mutates a page reachable
//    from a published Version — mutation shadows the root-to-leaf path
//    into fresh pages first (shadow paging), so concurrent readers of a
//    pinned version see a frozen tree
//  * lazy structural deletion: emptied leaves are detached and retired,
//    but underfull pages are not rebalanced (the PostgreSQL nbtree
//    strategy) — simple, and adequate for insert-mostly workloads
//
// Concurrency contract (docs/CONCURRENCY.md "Snapshots"): writers are
// serialized by the caller (the engine writer lock) and run inside a
// VersionManager write transaction; Put/Delete build the next tree
// version out-of-place and BTree::SetRoot only moves the *working* root —
// the version is installed atomically by VersionManager::Commit, and a
// failed install leaves the previous version current. Readers never take
// the writer lock: they resolve a root from a pinned Version via
// ViewAt() and traverse entirely lock-free (page pins through the
// internally latched BufferPool aside). Iterators pin their whole
// root-to-leaf spine, so a snapshot iterator stays valid while writers
// publish newer versions; working-root iterators (NewIterator) are
// writer-side and invalidated by any mutation, as before.
//
// Several trees can share one page file: each tree parks its root PageId
// in a pager metadata slot chosen by the caller, and all trees of one
// file share one VersionManager so a multi-tree mutation commits as one
// version.

#ifndef VIST_STORAGE_BTREE_H_
#define VIST_STORAGE_BTREE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"
#include "storage/pager.h"
#include "storage/version.h"

namespace vist {

class BTreeView;

class BTree {
 public:
  /// Creates a fresh empty tree; records its root id in working meta slot
  /// `meta_slot`. Requires an open write transaction on `versions` (the
  /// root becomes durable when the caller commits).
  static Result<std::unique_ptr<BTree>> Create(Pager* pager, BufferPool* pool,
                                               VersionManager* versions,
                                               int meta_slot);
  /// Opens the tree whose root id is stored in `meta_slot`.
  static Result<std::unique_ptr<BTree>> Open(Pager* pager, BufferPool* pool,
                                             VersionManager* versions,
                                             int meta_slot);

  BTree(const BTree&) = delete;
  BTree& operator=(const BTree&) = delete;

  /// Inserts or replaces the value for `key`. Requires an open write
  /// transaction (copy-on-write: never mutates published pages).
  Status Put(const Slice& key, const Slice& value);

  /// Returns the value for `key`, or NotFound. Reads the *working* root:
  /// writer-side. Readers use ViewAt() on a pinned version instead.
  Result<std::string> Get(const Slice& key);

  /// Removes `key`; NotFound if absent. Requires an open write
  /// transaction.
  Status Delete(const Slice& key);

  /// An ordered cursor: a pinned root-to-leaf spine of PageRefs, moved by
  /// re-descending through the pinned parents (there are no leaf sibling
  /// links under copy-on-write — a linked neighbor would have to be
  /// shadowed too, cascading across the whole leaf level).
  /// Usage: it->Seek(k); while (it->Valid()) { ... it->Next(); }
  /// After the loop, check status() to distinguish end-of-data from error.
  class Iterator {
   public:
    ~Iterator() = default;

    /// Positions at the first entry with key >= `target`.
    void Seek(const Slice& target);
    void SeekToFirst();

    bool Valid() const { return valid_; }
    void Next();

    /// Cooperative cancellation: every page load first consults `checker`
    /// (borrowed; must outlive the iterator) and aborts the scan with
    /// status DeadlineExceeded once it reports expiry. Combined with the
    /// checker's amortized clock reads this bounds how many index nodes an
    /// expired query can still touch (common/deadline.h).
    void set_deadline_checker(DeadlineChecker* checker) { checker_ = checker; }

    /// Valid only while Valid(); the slices point into the pinned leaf and
    /// are invalidated by the next cursor movement.
    Slice key() const;
    Slice value() const;

    const Status& status() const { return status_; }

   private:
    friend class BTree;
    friend class BTreeView;
    Iterator(const BTree* tree, PageId root) : tree_(tree), root_(root) {}

    // One pinned level of the spine. For internal levels `index` is the
    // child position in use: -1 for the leftmost child (NodePage::next()),
    // 0..n-1 for Child(i). For the leaf (last) level it is the cell index.
    struct Level {
      PageRef ref;
      int index;
    };

    /// Fetches + validates a page (deadline-checked); false on error
    /// (status_ set, spine released).
    bool LoadPage(PageId id, PageRef* out);
    /// Pushes the path to the smallest leaf of the subtree at `id`; false
    /// on error.
    bool DescendFirst(PageId id);
    /// Advances to the first cell of the next leaf, walking up the pinned
    /// spine; clears valid_ at the end.
    void NextLeaf();
    void Fail(Status status);

    const BTree* tree_;
    PageId root_;
    std::vector<Level> spine_;
    DeadlineChecker* checker_ = nullptr;
    bool valid_ = false;
    Status status_;
  };

  /// Writer-side cursor over the working root (invalidated by mutation).
  std::unique_ptr<Iterator> NewIterator() {
    return std::unique_ptr<Iterator>(new Iterator(this, root()));
  }

  /// A read-only view of this tree as of `version` — the reader-side
  /// entry point. The caller must keep the Version pinned (and this BTree
  /// alive) for the lifetime of the view and everything it returns.
  BTreeView ViewAt(const Version& version) const;

  /// Number of entries, by full scan (test/debug helper; working root).
  Result<uint64_t> CountEntries();

 private:
  friend class BTreeView;

  BTree(Pager* pager, BufferPool* pool, VersionManager* versions,
        int meta_slot)
      : pager_(pager), pool_(pool), versions_(versions),
        meta_slot_(meta_slot) {}

  struct PathEntry {
    PageId page;
    int child_index;  // -1 when routed through the leftmost child pointer
  };

  /// The working root: the transaction's in-progress root if one is open,
  /// else the current version's.
  PageId root() const {
    return static_cast<PageId>(versions_->WorkingSlot(meta_slot_));
  }

  /// Points the working tree at a new root page. In-memory only: the root
  /// is persisted (with journal + rollback semantics) only when the owner
  /// commits the write transaction, so a failed install can never leave
  /// root_ pointing at an unpublished tree.
  void SetRoot(PageId root) { versions_->SetWorkingSlot(meta_slot_, root); }

  /// Returns a same-transaction ("fresh") page holding `id`'s contents:
  /// `id` itself when already fresh, otherwise a newly allocated copy
  /// (the published original is retired). The copy-on-write primitive.
  Result<PageId> ShadowPage(PageId id);

  /// Read-only descent from `root` to the leaf that owns `key`.
  Result<PageId> FindLeafAt(PageId root, const Slice& key) const;

  /// Write-side descent: shadows every node on the root-to-leaf path
  /// (re-pointing each parent at the shadow) so the caller may mutate the
  /// returned leaf and everything in `path` in place.
  Result<PageId> FindLeafForWrite(const Slice& key,
                                  std::vector<PathEntry>* path);

  /// Point lookup / scan / count against an explicit root (shared by the
  /// writer-side wrappers and BTreeView).
  Result<std::string> GetAt(PageId root, const Slice& key) const;
  Result<uint64_t> CountEntriesAt(PageId root) const;

  /// Splits the full node `page_id` while inserting (key,value|child) at
  /// cell position `pos`, then propagates the separator upward along
  /// `path`. All pages involved are fresh (shadowed during the descent).
  Status SplitAndInsert(PageId page_id, int pos, const Slice& key,
                        const Slice& value, PageId child,
                        std::vector<PathEntry>* path);

  /// Inserts a separator cell into the parent on `path` (or grows a new
  /// root) after `left_id` split off `right_id` with first key `sep`.
  Status InsertIntoParent(PageId left_id, const Slice& sep, PageId right_id,
                          std::vector<PathEntry>* path);

  /// Retires an emptied leaf and removes its reference from ancestors
  /// (collapsing internals left with a single child).
  Status RemoveEmptyLeaf(PageId leaf_id, std::vector<PathEntry>* path);

  Pager* pager_;
  BufferPool* pool_;
  VersionManager* versions_;
  int meta_slot_;
};

/// A value-type read view: one tree at one version's root. Copyable and
/// cheap; never exposes the root PageId (snapshot handles own the pin).
/// A default-constructed view is invalid; engines only hand out views
/// built by BTree::ViewAt.
class BTreeView {
 public:
  BTreeView() = default;

  bool valid() const { return tree_ != nullptr; }

  /// Returns the value for `key` at this version, or NotFound.
  Result<std::string> Get(const Slice& key) const;

  /// An ordered cursor over this version of the tree. Stable under
  /// concurrent writers (they never mutate this version's pages).
  std::unique_ptr<BTree::Iterator> NewIterator() const {
    return std::unique_ptr<BTree::Iterator>(
        new BTree::Iterator(tree_, root_));
  }

  /// Number of entries at this version, by full scan.
  Result<uint64_t> CountEntries() const;

 private:
  friend class BTree;
  BTreeView(const BTree* tree, PageId root) : tree_(tree), root_(root) {}

  const BTree* tree_ = nullptr;
  PageId root_ = kInvalidPageId;
};

}  // namespace vist

#endif  // VIST_STORAGE_BTREE_H_
