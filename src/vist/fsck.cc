#include "vist/fsck.h"

#include <set>
#include <sstream>

#include "common/coding.h"
#include "storage/page.h"
#include "storage/pager.h"
#include "vist/manifest.h"

namespace vist {
namespace {

// Tree-walk state shared across the index's B+ trees so a page reachable
// from two trees (or twice from one) is flagged exactly once.
class Walker {
 public:
  Walker(Pager* pager, FsckReport* report)
      : pager_(pager), report_(report), page_buf_(pager->page_size()) {}

  /// Walks one tree; returns the number of leaf cells seen.
  uint64_t WalkTree(const char* name, PageId root) {
    leaf_depth_ = -1;
    entries_ = 0;
    tree_ = name;
    // An empty tree is a single leaf; the root is never kInvalidPageId for
    // a tree that exists (callers skip absent trees).
    Walk(root, /*has_lo=*/false, {}, /*has_hi=*/false, {}, /*depth=*/0);
    return entries_;
  }

  const std::set<PageId>& visited() const { return visited_; }

 private:
  void Problem(const std::string& what) {
    report_->problems.push_back(std::string(tree_) + " tree: " + what);
  }

  void Walk(PageId id, bool has_lo, std::string lo, bool has_hi,
            std::string hi, int depth) {
    if (id == kInvalidPageId || id >= pager_->page_count()) {
      Problem("child pointer " + std::to_string(id) + " out of range");
      return;
    }
    if (!visited_.insert(id).second) {
      Problem("page " + std::to_string(id) + " reachable twice");
      return;
    }
    ++report_->btree_pages;
    Status s = pager_->ReadPage(id, page_buf_.data());
    if (!s.ok()) {
      Problem(s.message());
      return;
    }
    NodePage np(page_buf_.data(), pager_->usable_page_size());
    if (!np.Validate()) {
      Problem("page " + std::to_string(id) + " fails structural validation");
      return;
    }
    // In-page order and fence bounds. Fence keys are lower bounds that stay
    // valid across deletions, so every key must sit in [lo, hi).
    std::string prev_key;
    for (int i = 0; i < np.num_cells(); ++i) {
      std::string key = np.Key(i).ToString();
      if (i > 0 && key < prev_key) {
        Problem("page " + std::to_string(id) + " cell " + std::to_string(i) +
                " breaks key order");
      }
      if ((has_lo && key < lo) || (has_hi && !(key < hi))) {
        Problem("page " + std::to_string(id) + " cell " + std::to_string(i) +
                " violates its parent's fence keys");
      }
      prev_key = std::move(key);
    }
    if (np.is_leaf()) {
      if (leaf_depth_ < 0) leaf_depth_ = depth;
      if (depth != leaf_depth_) {
        Problem("page " + std::to_string(id) + " is a leaf at depth " +
                std::to_string(depth) + ", expected " +
                std::to_string(leaf_depth_));
      }
      entries_ += np.num_cells();
      // Leaves carry no sibling links under copy-on-write (a split would
      // otherwise have to dirty a published neighbor); iteration descends
      // through the internal spine instead, so there is nothing to check.
      return;
    }
    // Internal: recurse with narrowed bounds. Copy out the routing info
    // first — page_buf_ is reused by the recursive reads.
    PageId leftmost = np.next();
    std::vector<std::pair<std::string, PageId>> cells;
    cells.reserve(np.num_cells());
    for (int i = 0; i < np.num_cells(); ++i) {
      cells.emplace_back(np.Key(i).ToString(), np.Child(i));
    }
    if (cells.empty()) {
      Problem("internal page " + std::to_string(id) + " has no separators");
    }
    Walk(leftmost, has_lo, lo, !cells.empty(), cells.empty() ? hi : cells[0].first,
         depth + 1);
    for (size_t i = 0; i < cells.size(); ++i) {
      const bool last = i + 1 == cells.size();
      Walk(cells[i].second, /*has_lo=*/true, cells[i].first,
           last ? has_hi : true, last ? hi : cells[i + 1].first, depth + 1);
    }
  }

  Pager* pager_;
  FsckReport* report_;
  std::vector<char> page_buf_;
  std::set<PageId> visited_;
  int leaf_depth_ = -1;
  uint64_t entries_ = 0;
  const char* tree_ = "";
};

}  // namespace

std::string FsckReport::Summary() const {
  std::ostringstream out;
  out << "fsck.pages: " << pages << "\n";
  out << "fsck.checksum_failures: " << checksum_failures << "\n";
  out << "fsck.btree_pages: " << btree_pages << "\n";
  out << "fsck.free_pages: " << free_pages << "\n";
  out << "fsck.leaked_pages: " << leaked_pages << "\n";
  out << "fsck.doc_entries: " << doc_entries << "\n";
  out << "fsck.problems: " << problems.size() << "\n";
  for (const std::string& p : problems) {
    out << "problem: " << p << "\n";
  }
  out << "fsck.status: " << (ok() ? "clean" : "damaged") << "\n";
  return out.str();
}

Result<FsckReport> RunFsck(const std::string& dir,
                           const FsckOptions& options) {
  FsckReport report;

  // Opening validates the header (magic, page size, checksum, field
  // sanity, file not shorter than the header claims) and rolls back any
  // pending journal, so the rest of the scan sees last-committed state.
  PagerOptions pager_options;
  pager_options.durability = DurabilityLevel::kPowerLoss;
  pager_options.env = options.env;
  pager_options.create = false;
  auto pager_or = Pager::Open(PageFilePath(dir), pager_options);
  if (pager_or.status().IsNotFound()) return pager_or.status();
  if (!pager_or.ok()) {
    report.problems.push_back("page file: " + pager_or.status().message());
    return report;
  }
  std::unique_ptr<Pager> pager = std::move(*pager_or);
  report.pages = pager->page_count();

  // Pass 1: every page's checksum (freed pages carry valid trailers too).
  std::vector<char> buf(pager->page_size());
  for (PageId id = 1; id < pager->page_count(); ++id) {
    Status s = pager->ReadPage(id, buf.data());
    if (!s.ok()) {
      ++report.checksum_failures;
      report.problems.push_back(s.message());
    }
  }

  // Pass 2: tree walks over every tree the meta slots root.
  Walker walker(pager.get(), &report);
  constexpr const char* kTreeNames[kNumTreeSlots] = {"entry", "docid",
                                                     "doc-store", "meta"};
  for (int slot = 0; slot < kNumTreeSlots; ++slot) {
    const PageId root = pager->GetMetaSlot(slot);
    if (root == kInvalidPageId) continue;
    const uint64_t entries = walker.WalkTree(kTreeNames[slot], root);
    if (slot == kDocIdTreeSlot) report.doc_entries = entries;
  }

  // Pass 3: freelist walk — range, cycles, overlap with reachable pages.
  std::set<PageId> free_pages;
  PageId cursor = pager->freelist_head();
  while (cursor != kInvalidPageId) {
    if (cursor >= pager->page_count()) {
      report.problems.push_back("freelist: page " + std::to_string(cursor) +
                                " out of range");
      break;
    }
    if (!free_pages.insert(cursor).second) {
      report.problems.push_back("freelist: cycle through page " +
                                std::to_string(cursor));
      break;
    }
    if (walker.visited().count(cursor) != 0) {
      report.problems.push_back("freelist: page " + std::to_string(cursor) +
                                " is also reachable from a tree");
    }
    if (!pager->ReadPage(cursor, buf.data()).ok()) {
      // Already reported by the checksum pass; the next pointer is not
      // trustworthy, so stop following the chain.
      break;
    }
    cursor = DecodeFixed64LE(buf.data());
  }
  report.free_pages = free_pages.size();

  // Pass 4: accounting — every page is reachable, free, or leaked.
  for (PageId id = 1; id < pager->page_count(); ++id) {
    if (walker.visited().count(id) == 0 && free_pages.count(id) == 0) {
      ++report.leaked_pages;
      report.problems.push_back("page " + std::to_string(id) +
                                " is neither reachable nor on the freelist");
    }
  }

  return report;
}

}  // namespace vist
