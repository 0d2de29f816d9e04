// Slotted-page layout shared by B+ tree leaf and internal nodes.
//
// Byte layout of a node page:
//   0   u8   type (kLeafPage / kInternalPage)
//   1   u8   reserved
//   2   u16  cell count
//   4   u16  content start (lowest byte used by cell content)
//   6   u16  fragmented bytes (reclaimable by Defragment)
//   8   u64  internal: leftmost child page id | leaf: unused
//   16  u64  reserved (zero)
//   24  u16  slot[cell count]   — offsets of cells, sorted by key
//   ...      free space
//   ...      cell content, growing down from the page end
//
// Copy-on-write updates shadow a leaf without touching its neighbours, so
// leaves carry no sibling links; scans move between leaves through the
// parent path.
//
// Leaf cell:     varint key_len, varint value_len, key bytes, value bytes
// Internal cell: varint key_len, key bytes, u64 child page id
//
// An internal node with cells (k_0,c_0)..(k_n,c_n) and leftmost child c_L
// routes a search key K to c_L when K < k_0, otherwise to c_i for the
// largest i with k_i <= K. Cell keys are "fence keys": lower bounds on the
// keys stored in their subtree (they may become stale-but-safe lower bounds
// after deletions).

#ifndef VIST_STORAGE_PAGE_H_
#define VIST_STORAGE_PAGE_H_

#include <cstdint>

#include "common/slice.h"
#include "storage/pager.h"

namespace vist {

inline constexpr uint8_t kLeafPage = 1;
inline constexpr uint8_t kInternalPage = 2;

/// Byte offset where the slot array starts (== header size).
inline constexpr uint16_t kPageHeaderSize = 24;

/// A view over one node page's bytes. Cheap to construct; does not own the
/// buffer and performs no I/O.
class NodePage {
 public:
  NodePage(char* data, uint32_t page_size)
      : data_(data), page_size_(page_size) {}

  /// Formats a blank page of the given type.
  void Init(uint8_t type);

  /// Full structural check of an untrusted page: type, slot bounds, and
  /// every cell's parse staying inside the page. Accessors assume a page
  /// that passed this (the B+ tree validates on load), so on-disk
  /// corruption surfaces as Status::Corruption instead of undefined
  /// behaviour.
  bool Validate() const;

  uint8_t type() const;
  bool is_leaf() const { return type() == kLeafPage; }
  uint16_t num_cells() const;

  /// Internal leftmost child (unused on leaves).
  PageId next() const;
  void set_next(PageId id);

  /// Key of cell i (valid for both node types).
  Slice Key(int i) const;
  /// Value of leaf cell i.
  Slice Value(int i) const;
  /// Child page id of internal cell i.
  PageId Child(int i) const;
  /// Rewrites the child pointer of internal cell i in place.
  void SetChild(int i, PageId child);

  /// First cell index whose key is >= `key` (== num_cells() if none).
  int LowerBound(const Slice& key) const;

  /// Inserts a leaf cell at position i. Returns false when the page lacks
  /// space even after defragmentation (caller must split).
  bool InsertLeaf(int i, const Slice& key, const Slice& value);
  /// Inserts an internal cell at position i; same space contract.
  bool InsertInternal(int i, const Slice& key, PageId child);

  /// Removes cell i (content bytes become fragmentation).
  void Remove(int i);

  /// Bytes available for a new cell + slot without defragmentation.
  size_t FreeSpace() const;
  /// Compacts cell content, folding fragmented bytes back into free space.
  void Defragment();

  /// Largest cell (key+value+overhead) the tree accepts for this page size;
  /// guarantees at least 4 cells per page so splits always make progress.
  static size_t MaxCellSize(uint32_t page_size) {
    return (page_size - kPageHeaderSize) / 4 - 2;
  }

 private:
  uint16_t CellOffset(int i) const;
  void SetCellOffset(int i, uint16_t offset);
  size_t CellSizeAt(uint16_t offset) const;
  bool InsertCell(int i, const char* cell, size_t cell_size);

  char* data_;
  uint32_t page_size_;
};

}  // namespace vist

#endif  // VIST_STORAGE_PAGE_H_
