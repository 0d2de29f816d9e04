#include "storage/page.h"

#include <cstring>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/logging.h"

namespace vist {
namespace {

constexpr size_t kTypeOffset = 0;
constexpr size_t kNumCellsOffset = 2;
constexpr size_t kContentStartOffset = 4;
constexpr size_t kFragBytesOffset = 6;
constexpr size_t kNextOffset = 8;

// Parses the varint at p (bounded by limit), returning the value and
// advancing *p. Page contents are trusted (we wrote them), so a malformed
// varint is an invariant violation.
uint32_t ReadVarint(const char** p, const char* limit) {
  Slice s(*p, limit - *p);
  uint32_t v = 0;
  VIST_CHECK(GetVarint32(&s, &v)) << "corrupt varint in node page";
  *p = s.data();
  return v;
}

}  // namespace

void NodePage::Init(uint8_t type) {
  memset(data_, 0, kPageHeaderSize);
  data_[kTypeOffset] = static_cast<char>(type);
  EncodeFixed16LE(data_ + kNumCellsOffset, 0);
  EncodeFixed16LE(data_ + kContentStartOffset,
                  static_cast<uint16_t>(page_size_));
  EncodeFixed16LE(data_ + kFragBytesOffset, 0);
  EncodeFixed64LE(data_ + kNextOffset, kInvalidPageId);
}

uint8_t NodePage::type() const {
  return static_cast<uint8_t>(data_[kTypeOffset]);
}

bool NodePage::Validate() const {
  if (type() != kLeafPage && type() != kInternalPage) return false;
  const size_t n = DecodeFixed16LE(data_ + kNumCellsOffset);
  const size_t content_start = DecodeFixed16LE(data_ + kContentStartOffset);
  if (kPageHeaderSize + 2 * n > content_start || content_start > page_size_) {
    return false;
  }
  const bool leaf = is_leaf();
  for (size_t i = 0; i < n; ++i) {
    const size_t offset = DecodeFixed16LE(data_ + kPageHeaderSize + 2 * i);
    if (offset < content_start || offset >= page_size_) return false;
    // Bounded re-parse of the cell (no trust in varints).
    Slice cell(data_ + offset, page_size_ - offset);
    uint32_t klen = 0, vlen = 0;
    if (!GetVarint32(&cell, &klen)) return false;
    if (leaf && !GetVarint32(&cell, &vlen)) return false;
    const size_t payload = leaf ? size_t{klen} + vlen : size_t{klen} + 8;
    if (payload > cell.size()) return false;
  }
  return true;
}

uint16_t NodePage::num_cells() const {
  return DecodeFixed16LE(data_ + kNumCellsOffset);
}

PageId NodePage::next() const { return DecodeFixed64LE(data_ + kNextOffset); }
void NodePage::set_next(PageId id) { EncodeFixed64LE(data_ + kNextOffset, id); }

uint16_t NodePage::CellOffset(int i) const {
  return DecodeFixed16LE(data_ + kPageHeaderSize + 2 * i);
}

void NodePage::SetCellOffset(int i, uint16_t offset) {
  EncodeFixed16LE(data_ + kPageHeaderSize + 2 * i, offset);
}

Slice NodePage::Key(int i) const {
  VIST_DCHECK(i >= 0 && i < num_cells());
  const char* p = data_ + CellOffset(i);
  const char* limit = data_ + page_size_;
  uint32_t klen = ReadVarint(&p, limit);
  if (is_leaf()) ReadVarint(&p, limit);  // skip value length
  return Slice(p, klen);
}

Slice NodePage::Value(int i) const {
  VIST_DCHECK(is_leaf());
  const char* p = data_ + CellOffset(i);
  const char* limit = data_ + page_size_;
  uint32_t klen = ReadVarint(&p, limit);
  uint32_t vlen = ReadVarint(&p, limit);
  return Slice(p + klen, vlen);
}

PageId NodePage::Child(int i) const {
  VIST_DCHECK(!is_leaf());
  const char* p = data_ + CellOffset(i);
  const char* limit = data_ + page_size_;
  uint32_t klen = ReadVarint(&p, limit);
  return DecodeFixed64LE(p + klen);
}

void NodePage::SetChild(int i, PageId child) {
  VIST_DCHECK(!is_leaf());
  const char* p = data_ + CellOffset(i);
  const char* limit = data_ + page_size_;
  uint32_t klen = ReadVarint(&p, limit);
  EncodeFixed64LE(const_cast<char*>(p) + klen, child);
}

int NodePage::LowerBound(const Slice& key) const {
  int lo = 0;
  int hi = num_cells();
  while (lo < hi) {
    int mid = (lo + hi) / 2;
    if (Key(mid).Compare(key) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

size_t NodePage::CellSizeAt(uint16_t offset) const {
  const char* start = data_ + offset;
  const char* p = start;
  const char* limit = data_ + page_size_;
  uint32_t klen = ReadVarint(&p, limit);
  if (is_leaf()) {
    uint32_t vlen = ReadVarint(&p, limit);
    return (p - start) + klen + vlen;
  }
  return (p - start) + klen + 8;
}

size_t NodePage::FreeSpace() const {
  const size_t slots_end = kPageHeaderSize + 2 * num_cells();
  const size_t content_start = DecodeFixed16LE(data_ + kContentStartOffset);
  VIST_DCHECK(content_start >= slots_end);
  return content_start - slots_end;
}

void NodePage::Defragment() {
  const int n = num_cells();
  std::vector<std::string> cells(n);
  std::vector<size_t> sizes(n);
  for (int i = 0; i < n; ++i) {
    uint16_t off = CellOffset(i);
    sizes[i] = CellSizeAt(off);
    cells[i].assign(data_ + off, sizes[i]);
  }
  uint16_t content = static_cast<uint16_t>(page_size_);
  for (int i = 0; i < n; ++i) {
    content = static_cast<uint16_t>(content - sizes[i]);
    memcpy(data_ + content, cells[i].data(), sizes[i]);
    SetCellOffset(i, content);
  }
  EncodeFixed16LE(data_ + kContentStartOffset, content);
  EncodeFixed16LE(data_ + kFragBytesOffset, 0);
}

bool NodePage::InsertCell(int i, const char* cell, size_t cell_size) {
  const size_t needed = cell_size + 2;  // cell + slot entry
  if (FreeSpace() < needed) {
    const uint16_t frag = DecodeFixed16LE(data_ + kFragBytesOffset);
    if (FreeSpace() + frag < needed) return false;
    Defragment();
  }
  uint16_t content = DecodeFixed16LE(data_ + kContentStartOffset);
  content = static_cast<uint16_t>(content - cell_size);
  memcpy(data_ + content, cell, cell_size);
  EncodeFixed16LE(data_ + kContentStartOffset, content);

  const int n = num_cells();
  VIST_DCHECK(i >= 0 && i <= n);
  // Shift slot entries [i, n) up by one.
  memmove(data_ + kPageHeaderSize + 2 * (i + 1),
          data_ + kPageHeaderSize + 2 * i, 2 * (n - i));
  SetCellOffset(i, content);
  EncodeFixed16LE(data_ + kNumCellsOffset, static_cast<uint16_t>(n + 1));
  return true;
}

bool NodePage::InsertLeaf(int i, const Slice& key, const Slice& value) {
  VIST_DCHECK(is_leaf());
  std::string cell;
  PutVarint32(&cell, static_cast<uint32_t>(key.size()));
  PutVarint32(&cell, static_cast<uint32_t>(value.size()));
  cell.append(key.data(), key.size());
  cell.append(value.data(), value.size());
  return InsertCell(i, cell.data(), cell.size());
}

bool NodePage::InsertInternal(int i, const Slice& key, PageId child) {
  VIST_DCHECK(!is_leaf());
  std::string cell;
  PutVarint32(&cell, static_cast<uint32_t>(key.size()));
  cell.append(key.data(), key.size());
  char buf[8];
  EncodeFixed64LE(buf, child);
  cell.append(buf, 8);
  return InsertCell(i, cell.data(), cell.size());
}

void NodePage::Remove(int i) {
  const int n = num_cells();
  VIST_DCHECK(i >= 0 && i < n);
  const uint16_t off = CellOffset(i);
  const size_t size = CellSizeAt(off);
  const uint16_t frag = DecodeFixed16LE(data_ + kFragBytesOffset);
  EncodeFixed16LE(data_ + kFragBytesOffset,
                  static_cast<uint16_t>(frag + size));
  memmove(data_ + kPageHeaderSize + 2 * i,
          data_ + kPageHeaderSize + 2 * (i + 1), 2 * (n - i - 1));
  EncodeFixed16LE(data_ + kNumCellsOffset, static_cast<uint16_t>(n - 1));
  // A cell at the current content boundary can be released immediately.
  if (off == DecodeFixed16LE(data_ + kContentStartOffset)) {
    EncodeFixed16LE(data_ + kContentStartOffset,
                    static_cast<uint16_t>(off + size));
    const uint16_t f = DecodeFixed16LE(data_ + kFragBytesOffset);
    EncodeFixed16LE(data_ + kFragBytesOffset,
                    static_cast<uint16_t>(f - size));
  }
}

}  // namespace vist
