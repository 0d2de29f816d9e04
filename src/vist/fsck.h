// Offline integrity checker for a ViST index directory ("fsck"). Verifies,
// without going through the query engine:
//
//   * the pager file header and every page checksum,
//   * every B+ tree — entry, DocId, meta and (when present) the document
//     store: structural page validity, in-page and cross-page key order
//     against the fence keys, uniform leaf depth, and no page reachable
//     twice,
//   * the freelist: no out-of-range links, no cycles, no page that is both
//     free and reachable from a tree,
//   * no leaked pages (every page is either reachable or free).
//
// The meta tree's records (options, names, stats) are decoded by
// VistIndex::Open, which reports a malformed one as Corruption.
//
// Opening the page file performs the same journal rollback a normal open
// would, so an index left behind by a crash is checked in its recovered
// (last-committed) state. Exposed as `vist_tool fsck <dir>`.

#ifndef VIST_VIST_FSCK_H_
#define VIST_VIST_FSCK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/result.h"

namespace vist {

struct FsckOptions {
  /// File-system seam for the page file; null means Env::Default().
  Env* env = nullptr;
};

struct FsckReport {
  uint64_t pages = 0;              // total pages, header included
  uint64_t checksum_failures = 0;  // pages whose trailer did not verify
  uint64_t btree_pages = 0;        // pages reachable from the tree roots
  uint64_t free_pages = 0;         // pages on the freelist
  uint64_t leaked_pages = 0;       // neither reachable nor free
  uint64_t doc_entries = 0;        // docid-tree entries seen
  /// One line per defect, machine-grepable; empty means a clean index.
  std::vector<std::string> problems;

  bool ok() const { return problems.empty(); }
  /// Machine-readable dump: `fsck.<field>: <value>` lines followed by one
  /// `problem: ...` line per defect.
  std::string Summary() const;
};

/// Checks the index in `dir`. The returned report lists the damage; a
/// non-OK status (NotFound) means there is no page file to examine.
Result<FsckReport> RunFsck(const std::string& dir,
                           const FsckOptions& options = {});

}  // namespace vist

#endif  // VIST_VIST_FSCK_H_
