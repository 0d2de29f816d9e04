#include "storage/btree.h"

#include <cstring>
#include <vector>

#include "common/logging.h"
#include "obs/metrics.h"

namespace vist {
namespace {

// Metric reference: docs/OBSERVABILITY.md (B+ tree section).
// `node_accesses` counts every page the tree touches (repeat visits
// included) — the paper's "number of index nodes accessed" cost measure;
// obs::ProfileScope turns its per-query delta into
// QueryProfile::index_nodes_accessed.
struct BTreeMetrics {
  obs::Counter& node_accesses = obs::GetCounter("storage.btree.node_accesses");
  obs::Counter& seeks = obs::GetCounter("storage.btree.seeks");
  obs::Counter& puts = obs::GetCounter("storage.btree.puts");
  obs::Counter& gets = obs::GetCounter("storage.btree.gets");
  obs::Counter& deletes = obs::GetCounter("storage.btree.deletes");
  obs::Counter& splits = obs::GetCounter("storage.btree.splits");
  obs::Counter& leaf_merges = obs::GetCounter("storage.btree.leaf_merges");
  obs::Counter& pages_shadowed =
      obs::GetCounter("storage.btree.pages_shadowed");

  static BTreeMetrics& Get() {
    static BTreeMetrics metrics;
    return metrics;
  }
};

// node_accesses feeds per-query cost attribution, which must stay exact
// when queries run concurrently: bump the calling thread's mirror alongside
// the global counter (obs::ProfileScope diffs the mirror).
void CountNodeAccess() {
  BTreeMetrics::Get().node_accesses.Increment();
  ++obs::ThisThreadStorageCounters().btree_node_accesses;
}

// Routes `key` within an internal node: returns the child to descend into
// and sets *child_index to the cell index used (-1 for the leftmost child).
PageId RouteToChild(const NodePage& np, const Slice& key, int* child_index) {
  int i = np.LowerBound(key);
  if (i < np.num_cells() && np.Key(i).Compare(key) == 0) {
    *child_index = i;
    return np.Child(i);
  }
  if (i == 0) {
    *child_index = -1;
    return np.next();  // leftmost child
  }
  *child_index = i - 1;
  return np.Child(i - 1);
}

}  // namespace

Result<std::unique_ptr<BTree>> BTree::Create(Pager* pager, BufferPool* pool,
                                             VersionManager* versions,
                                             int meta_slot) {
  VIST_CHECK(versions->in_write_transaction())
      << "BTree::Create outside a write transaction";
  VIST_ASSIGN_OR_RETURN(PageRef root, pool->New());
  NodePage np(root.data(), pager->usable_page_size());
  np.Init(kLeafPage);
  root.MarkDirty();
  versions->MarkFresh(root.id());
  versions->SetWorkingSlot(meta_slot, root.id());
  return std::unique_ptr<BTree>(new BTree(pager, pool, versions, meta_slot));
}

Result<std::unique_ptr<BTree>> BTree::Open(Pager* pager, BufferPool* pool,
                                           VersionManager* versions,
                                           int meta_slot) {
  if (versions->WorkingSlot(meta_slot) == kInvalidPageId) {
    return Status::NotFound("no B+ tree recorded in meta slot");
  }
  return std::unique_ptr<BTree>(new BTree(pager, pool, versions, meta_slot));
}

BTreeView BTree::ViewAt(const Version& version) const {
  return BTreeView(this, static_cast<PageId>(version.slots[meta_slot_]));
}

Result<PageId> BTree::ShadowPage(PageId id) {
  if (versions_->IsFresh(id)) return id;  // already ours to mutate
  BTreeMetrics::Get().pages_shadowed.Increment();
  CountNodeAccess();
  VIST_ASSIGN_OR_RETURN(PageRef src, pool_->Fetch(id));
  if (src.NeedsValidation()) {
    NodePage np(src.data(), pager_->usable_page_size());
    if (!np.Validate()) {
      return Status::Corruption("damaged B+ tree page " + std::to_string(id));
    }
    src.MarkValidated();
  }
  VIST_ASSIGN_OR_RETURN(PageRef dst, pool_->New());
  std::memcpy(dst.data(), src.data(), pager_->usable_page_size());
  dst.MarkDirty();
  if (dst.NeedsValidation()) dst.MarkValidated();
  versions_->MarkFresh(dst.id());
  // The published original leaves this tree version; readers pinning
  // older versions keep it alive until reclamation.
  VIST_RETURN_IF_ERROR(versions_->Retire(id));
  return dst.id();
}

Result<PageId> BTree::FindLeafAt(PageId root, const Slice& key) const {
  BTreeMetrics::Get().seeks.Increment();
  PageId current = root;
  while (true) {
    CountNodeAccess();
    VIST_ASSIGN_OR_RETURN(PageRef ref, pool_->Fetch(current));
    NodePage np(ref.data(), pager_->usable_page_size());
    if (ref.NeedsValidation()) {
      if (!np.Validate()) {
        return Status::Corruption("damaged B+ tree page " +
                                  std::to_string(current));
      }
      ref.MarkValidated();
    }
    if (np.is_leaf()) return current;
    int child_index = 0;
    PageId child = RouteToChild(np, key, &child_index);
    VIST_CHECK(child != kInvalidPageId) << "internal node with no child";
    current = child;
  }
}

Result<PageId> BTree::FindLeafForWrite(const Slice& key,
                                       std::vector<PathEntry>* path) {
  VIST_DCHECK(versions_->in_write_transaction());
  BTreeMetrics::Get().seeks.Increment();
  VIST_ASSIGN_OR_RETURN(PageId current, ShadowPage(root()));
  if (current != root()) SetRoot(current);
  while (true) {
    CountNodeAccess();
    VIST_ASSIGN_OR_RETURN(PageRef ref, pool_->Fetch(current));
    NodePage np(ref.data(), pager_->usable_page_size());
    if (ref.NeedsValidation()) {
      if (!np.Validate()) {
        return Status::Corruption("damaged B+ tree page " +
                                  std::to_string(current));
      }
      ref.MarkValidated();
    }
    if (np.is_leaf()) return current;
    int child_index = 0;
    PageId child = RouteToChild(np, key, &child_index);
    VIST_CHECK(child != kInvalidPageId) << "internal node with no child";
    // Shadow the child before descending and re-point this (fresh) node
    // at the copy, so the whole descent path is mutable in place.
    VIST_ASSIGN_OR_RETURN(PageId shadow, ShadowPage(child));
    if (shadow != child) {
      if (child_index == -1) {
        np.set_next(shadow);
      } else {
        np.SetChild(child_index, shadow);
      }
      ref.MarkDirty();
    }
    if (path != nullptr) path->push_back({current, child_index});
    current = shadow;
  }
}

Status BTree::Put(const Slice& key, const Slice& value) {
  const size_t cell_upper_bound = key.size() + value.size() + 10;
  if (cell_upper_bound > NodePage::MaxCellSize(pager_->usable_page_size())) {
    return Status::InvalidArgument("key+value too large for page size");
  }
  BTreeMetrics::Get().puts.Increment();
  std::vector<PathEntry> path;
  VIST_ASSIGN_OR_RETURN(PageId leaf_id, FindLeafForWrite(key, &path));
  CountNodeAccess();
  VIST_ASSIGN_OR_RETURN(PageRef leaf, pool_->Fetch(leaf_id));
  NodePage np(leaf.data(), pager_->usable_page_size());

  int pos = np.LowerBound(key);
  if (pos < np.num_cells() && np.Key(pos).Compare(key) == 0) {
    np.Remove(pos);  // upsert: replace the existing entry
  }
  if (np.InsertLeaf(pos, key, value)) {
    leaf.MarkDirty();
    return Status::OK();
  }
  leaf.Release();
  return SplitAndInsert(leaf_id, pos, key, value, kInvalidPageId, &path);
}

Status BTree::SplitAndInsert(PageId page_id, int pos, const Slice& key,
                             const Slice& value, PageId child,
                             std::vector<PathEntry>* path) {
  BTreeMetrics::Get().splits.Increment();
  CountNodeAccess();
  VIST_ASSIGN_OR_RETURN(PageRef left, pool_->Fetch(page_id));
  NodePage lp(left.data(), pager_->usable_page_size());
  const bool leaf = lp.is_leaf();
  const int n = lp.num_cells();

  // Gather all cells (plus the incoming one at `pos`) into owned storage,
  // then rebuild both halves. A split touches the whole page anyway, so the
  // copy costs little and avoids intricate in-place byte shuffling.
  struct Cell {
    std::string key;
    std::string payload;  // leaf value; unused for internal
    PageId child = kInvalidPageId;
    size_t bytes = 0;
  };
  std::vector<Cell> cells;
  cells.reserve(n + 1);
  for (int i = 0; i < n; ++i) {
    Cell c;
    c.key = lp.Key(i).ToString();
    if (leaf) {
      c.payload = lp.Value(i).ToString();
    } else {
      c.child = lp.Child(i);
    }
    c.bytes = c.key.size() + (leaf ? c.payload.size() : 8) + 10;
    cells.push_back(std::move(c));
  }
  {
    Cell c;
    c.key = key.ToString();
    if (leaf) {
      c.payload = value.ToString();
    } else {
      c.child = child;
    }
    c.bytes = c.key.size() + (leaf ? c.payload.size() : 8) + 10;
    cells.insert(cells.begin() + pos, std::move(c));
  }

  size_t total_bytes = 0;
  for (const Cell& c : cells) total_bytes += c.bytes;
  // Both halves must keep >= 1 cell. For internal nodes the mid cell is
  // promoted (not kept), so the right half needs a cell beyond mid too.
  const int max_mid =
      static_cast<int>(cells.size()) - (leaf ? 1 : 2);
  int mid;
  if (pos == n) {
    // Rightmost insert: the classic sequential-load split. Keep the left
    // page full and start a nearly empty right page, so ascending inserts
    // (bulk loads) pack pages densely instead of 50%.
    mid = max_mid;
  } else {
    // Split at ~half the bytes.
    size_t acc = 0;
    mid = 0;
    for (size_t i = 0; i < cells.size(); ++i) {
      acc += cells[i].bytes;
      if (acc >= total_bytes / 2) {
        mid = static_cast<int>(i) + 1;
        break;
      }
    }
  }
  if (mid < 1) mid = 1;
  if (mid > max_mid) mid = max_mid;
  VIST_CHECK(mid >= 1) << "split of a node with too few cells";

  VIST_ASSIGN_OR_RETURN(PageRef right, pool_->New());
  versions_->MarkFresh(right.id());
  NodePage rp(right.data(), pager_->usable_page_size());

  std::string separator;
  if (leaf) {
    lp.Init(kLeafPage);
    rp.Init(kLeafPage);
    for (int i = 0; i < mid; ++i) {
      VIST_CHECK(lp.InsertLeaf(i, cells[i].key, cells[i].payload));
    }
    for (size_t i = mid; i < cells.size(); ++i) {
      VIST_CHECK(rp.InsertLeaf(static_cast<int>(i) - mid, cells[i].key,
                               cells[i].payload));
    }
    separator = cells[mid].key;
    // No sibling links: iterators re-descend through their pinned
    // parents, so leaves need no chain maintenance (which copy-on-write
    // could not afford anyway — linking would dirty published neighbors).
  } else {
    const PageId old_leftmost = lp.next();
    lp.Init(kInternalPage);
    rp.Init(kInternalPage);
    lp.set_next(old_leftmost);
    for (int i = 0; i < mid; ++i) {
      VIST_CHECK(lp.InsertInternal(i, cells[i].key, cells[i].child));
    }
    // The mid cell is promoted: its key becomes the separator and its child
    // becomes the right node's leftmost child.
    separator = cells[mid].key;
    rp.set_next(cells[mid].child);
    for (size_t i = mid + 1; i < cells.size(); ++i) {
      VIST_CHECK(rp.InsertInternal(static_cast<int>(i) - mid - 1,
                                   cells[i].key, cells[i].child));
    }
  }
  left.MarkDirty();
  right.MarkDirty();
  const PageId right_id = right.id();
  left.Release();
  right.Release();
  return InsertIntoParent(page_id, separator, right_id, path);
}

Status BTree::InsertIntoParent(PageId left_id, const Slice& sep,
                               PageId right_id,
                               std::vector<PathEntry>* path) {
  if (path->empty()) {
    // The root split: grow the tree by one level.
    VIST_ASSIGN_OR_RETURN(PageRef root, pool_->New());
    versions_->MarkFresh(root.id());
    NodePage np(root.data(), pager_->usable_page_size());
    np.Init(kInternalPage);
    np.set_next(left_id);
    VIST_CHECK(np.InsertInternal(0, sep, right_id));
    root.MarkDirty();
    SetRoot(root.id());
    return Status::OK();
  }
  PathEntry entry = path->back();
  path->pop_back();
  VIST_ASSIGN_OR_RETURN(PageRef parent, pool_->Fetch(entry.page));
  NodePage np(parent.data(), pager_->usable_page_size());
  const int pos = entry.child_index + 1;
  if (np.InsertInternal(pos, sep, right_id)) {
    parent.MarkDirty();
    return Status::OK();
  }
  parent.Release();
  return SplitAndInsert(entry.page, pos, sep, Slice(), right_id, path);
}

Result<std::string> BTree::GetAt(PageId root, const Slice& key) const {
  BTreeMetrics::Get().gets.Increment();
  VIST_ASSIGN_OR_RETURN(PageId leaf_id, FindLeafAt(root, key));
  CountNodeAccess();
  VIST_ASSIGN_OR_RETURN(PageRef leaf, pool_->Fetch(leaf_id));
  NodePage np(leaf.data(), pager_->usable_page_size());
  int pos = np.LowerBound(key);
  if (pos < np.num_cells() && np.Key(pos).Compare(key) == 0) {
    return np.Value(pos).ToString();
  }
  return Status::NotFound("key not in tree");
}

Result<std::string> BTree::Get(const Slice& key) { return GetAt(root(), key); }

Status BTree::Delete(const Slice& key) {
  BTreeMetrics::Get().deletes.Increment();
  std::vector<PathEntry> path;
  VIST_ASSIGN_OR_RETURN(PageId leaf_id, FindLeafForWrite(key, &path));
  CountNodeAccess();
  VIST_ASSIGN_OR_RETURN(PageRef leaf, pool_->Fetch(leaf_id));
  NodePage np(leaf.data(), pager_->usable_page_size());
  int pos = np.LowerBound(key);
  if (pos >= np.num_cells() || np.Key(pos).Compare(key) != 0) {
    return Status::NotFound("key not in tree");
  }
  np.Remove(pos);
  leaf.MarkDirty();
  if (np.num_cells() == 0 && leaf_id != root()) {
    leaf.Release();
    return RemoveEmptyLeaf(leaf_id, &path);
  }
  return Status::OK();
}

Status BTree::RemoveEmptyLeaf(PageId leaf_id, std::vector<PathEntry>* path) {
  BTreeMetrics::Get().leaf_merges.Increment();
  // The leaf was shadowed on the way down, so it is fresh and retiring it
  // frees it immediately; no sibling chain exists to unlink.
  VIST_RETURN_IF_ERROR(versions_->Retire(leaf_id));

  // Remove the reference from ancestors, collapsing internals that are left
  // with a single (leftmost) child.
  PageId removed_child = leaf_id;
  while (!path->empty()) {
    PathEntry entry = path->back();
    path->pop_back();
    VIST_ASSIGN_OR_RETURN(PageRef parent, pool_->Fetch(entry.page));
    NodePage np(parent.data(), pager_->usable_page_size());
    if (entry.child_index >= 0) {
      VIST_CHECK(np.Child(entry.child_index) == removed_child);
      np.Remove(entry.child_index);
    } else {
      VIST_CHECK(np.next() == removed_child);
      VIST_CHECK(np.num_cells() > 0) << "internal node with a sole child";
      np.set_next(np.Child(0));
      np.Remove(0);
    }
    parent.MarkDirty();
    if (np.num_cells() > 0) return Status::OK();

    // Only the leftmost child remains: collapse this internal node. The
    // sole child may still be a published page — fine, the working root
    // may point anywhere; future writes will shadow it.
    const PageId sole_child = np.next();
    parent.Release();
    if (path->empty()) {
      VIST_CHECK(entry.page == root());
      SetRoot(sole_child);
      return versions_->Retire(entry.page);
    }
    PathEntry gp = path->back();
    VIST_ASSIGN_OR_RETURN(PageRef grand, pool_->Fetch(gp.page));
    NodePage gnp(grand.data(), pager_->usable_page_size());
    if (gp.child_index >= 0) {
      gnp.SetChild(gp.child_index, sole_child);
    } else {
      gnp.set_next(sole_child);
    }
    grand.MarkDirty();
    return versions_->Retire(entry.page);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Iterator

void BTree::Iterator::Fail(Status status) {
  status_ = std::move(status);
  valid_ = false;
  spine_.clear();
}

bool BTree::Iterator::LoadPage(PageId id, PageRef* out) {
  if (checker_ != nullptr && checker_->Expired()) {
    Fail(Status::DeadlineExceeded("deadline expired during index scan"));
    return false;
  }
  CountNodeAccess();
  auto ref = tree_->pool_->Fetch(id);
  if (!ref.ok()) {
    Fail(ref.status());
    return false;
  }
  *out = std::move(ref).value();
  if (out->NeedsValidation()) {
    NodePage np(out->data(), tree_->pager_->usable_page_size());
    if (!np.Validate()) {
      Fail(Status::Corruption("damaged B+ tree page " + std::to_string(id)));
      return false;
    }
    out->MarkValidated();
  }
  return true;
}

bool BTree::Iterator::DescendFirst(PageId id) {
  while (true) {
    PageRef ref;
    if (!LoadPage(id, &ref)) return false;
    NodePage np(ref.data(), tree_->pager_->usable_page_size());
    if (np.is_leaf()) {
      spine_.push_back({std::move(ref), 0});
      return true;
    }
    id = np.next();  // leftmost child
    VIST_CHECK(id != kInvalidPageId) << "internal node with no child";
    spine_.push_back({std::move(ref), -1});
  }
}

void BTree::Iterator::NextLeaf() {
  const uint32_t page_size = tree_->pager_->usable_page_size();
  spine_.pop_back();  // drop the exhausted leaf
  while (!spine_.empty()) {
    Level& lvl = spine_.back();
    NodePage np(lvl.ref.data(), page_size);
    if (lvl.index + 1 < np.num_cells()) {
      ++lvl.index;
      if (!DescendFirst(np.Child(lvl.index))) return;  // status_ set
      NodePage leaf(spine_.back().ref.data(), page_size);
      if (leaf.num_cells() > 0) {
        valid_ = true;
        return;
      }
      // Defensive: an empty non-root leaf should not exist, but skipping
      // it keeps the cursor total rather than corrupting the position.
      spine_.pop_back();
      continue;
    }
    spine_.pop_back();
  }
  valid_ = false;  // clean end of data
}

void BTree::Iterator::Seek(const Slice& target) {
  BTreeMetrics::Get().seeks.Increment();
  status_ = Status::OK();
  valid_ = false;
  const uint32_t page_size = tree_->pager_->usable_page_size();
  // Finger: keep the pinned spine down to the deepest level whose node
  // still covers `target`. The root covers every key; the child a level
  // holds covers [Key(index), Key(index + 1)), where a missing bound is
  // its parent's, already checked on the way down.
  size_t keep = spine_.empty() ? 0 : 1;
  while (keep < spine_.size()) {
    Level& parent = spine_[keep - 1];
    NodePage np(parent.ref.data(), page_size);
    if (parent.index >= 0 && target.Compare(np.Key(parent.index)) < 0) break;
    if (parent.index + 1 < np.num_cells() &&
        target.Compare(np.Key(parent.index + 1)) >= 0) {
      break;
    }
    ++keep;
  }
  spine_.erase(spine_.begin() + keep, spine_.end());
  if (spine_.empty()) {
    PageRef root;
    if (!LoadPage(root_, &root)) return;
    spine_.push_back({std::move(root), 0});
  }
  // Re-route below the kept levels: only these pages are loaded (and
  // counted as node accesses).
  while (true) {
    Level& lvl = spine_.back();
    NodePage np(lvl.ref.data(), page_size);
    if (np.is_leaf()) {
      lvl.index = np.LowerBound(target);
      if (lvl.index < np.num_cells()) {
        valid_ = true;
        return;
      }
      // The target sorts past this leaf; continue in the next one.
      NextLeaf();
      return;
    }
    const PageId child = RouteToChild(np, target, &lvl.index);
    VIST_CHECK(child != kInvalidPageId) << "internal node with no child";
    PageRef ref;
    if (!LoadPage(child, &ref)) return;
    spine_.push_back({std::move(ref), 0});
  }
}

// The empty key sorts before every key.
void BTree::Iterator::SeekToFirst() { Seek(Slice()); }

void BTree::Iterator::Next() {
  VIST_CHECK(valid_);
  Level& leaf = spine_.back();
  NodePage np(leaf.ref.data(), tree_->pager_->usable_page_size());
  if (++leaf.index < np.num_cells()) return;
  NextLeaf();
}

Slice BTree::Iterator::key() const {
  VIST_CHECK(valid_);
  const Level& leaf = spine_.back();
  NodePage np(const_cast<char*>(leaf.ref.data()),
              tree_->pager_->usable_page_size());
  return np.Key(leaf.index);
}

Slice BTree::Iterator::value() const {
  VIST_CHECK(valid_);
  const Level& leaf = spine_.back();
  NodePage np(const_cast<char*>(leaf.ref.data()),
              tree_->pager_->usable_page_size());
  return np.Value(leaf.index);
}

Result<uint64_t> BTree::CountEntriesAt(PageId root) const {
  std::unique_ptr<Iterator> it(new Iterator(this, root));
  uint64_t count = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) ++count;
  VIST_RETURN_IF_ERROR(it->status());
  return count;
}

Result<uint64_t> BTree::CountEntries() { return CountEntriesAt(root()); }

// ---------------------------------------------------------------------------
// BTreeView

Result<std::string> BTreeView::Get(const Slice& key) const {
  VIST_CHECK(valid());
  return tree_->GetAt(root_, key);
}

Result<uint64_t> BTreeView::CountEntries() const {
  VIST_CHECK(valid());
  return tree_->CountEntriesAt(root_);
}

}  // namespace vist
