// Algorithm 2 (§3.3): non-contiguous subsequence matching over the combined
// D-Ancestor / S-Ancestor B+ tree, shared by ViST and RIST (the paper:
// "ViST uses the same sequence matching algorithm as RIST").
//
// Per query element the matcher performs the paper's two-step "jump":
//   1. D-Ancestorship — find the D-key groups (Symbol, Prefix) that match
//      the element's pattern, instantiated with its query-tree parent's
//      concrete match. A fully concrete D-key is seeked directly; a
//      pattern ending in wildcard place holders becomes a discovery loop
//      over the D-key order (symbol, |prefix|, prefix), with '//' expanded
//      into "a series of '*' queries" over prefix lengths up to the
//      indexed maximum.
//   2. S-Ancestorship — within each group, one scan of the labels whose
//      parent lies in the scope (n_x, n_x + size_x) of the node matched
//      for the previous element.
// After the last element, doc ids are collected by a range query
// [n, n + size) on the DocId B+ tree.
//
// Chain start. The query's leading chain q0..qc (each element the
// query-tree parent of the next) is not bound top-down: the search starts
// at qc, matching its whole pattern over the whole label space. Preorder
// puts a node's tree ancestors before it on its own trie path, so a node
// that matches qc's pattern holds the matches of q0..qc-1 in its prefix;
// aligning the pattern with the prefix binds them (every alignment, when a
// later element refers to them). The answers are the paper's; only the
// order in which elements are bound changes. A query rooted at a wildcard
// has c = 0: the paper's top-down order.
//
// Anchors. Every element from qc on is bound inside the scope of the one
// before it, so the last element's match lies in the scope of every
// binding from qc on. When the last element is a value after qc, the
// matcher collects its anchors: the labels of all index nodes whose D-key
// matches that element's own pattern, over the whole label space. Its
// instantiated pattern specializes its own, so the anchors hold every
// possible match of it. Once the set is complete, a binding whose scope
// (n, n + size) holds no anchor is skipped without a seek, a group scan
// stops once parent_n reaches the largest anchor, and no anchors means no
// match. The collection runs on credit the search earns: one credit per
// range scan the search opens, 4 per anchor seek (at most a root-to-leaf
// descent), 1 per anchor entry, and the first seek waits for 4 credits.
// So a search that opens few range scans does little or no anchor work.
// Anchor seeks count as range scans and anchor entries as entries
// scanned.
//
// Cursors. A search keeps its cursors for its whole run: one entry cursor
// per query element, the anchor cursor, and one DocId cursor. A re-seek
// is a finger seek (storage/btree.h), so when the next binding of a
// parent moves its children's cursors, they re-descend only below the
// levels they keep pinned. The bindings of one D-key group arrive in
// label order with disjoint scopes, so the DocId cursor reads on from one
// binding's scope to the next instead of seeking.

#ifndef VIST_VIST_MATCHER_H_
#define VIST_VIST_MATCHER_H_

#include <cstdint>
#include <vector>

#include "common/deadline.h"
#include "common/result.h"
#include "obs/query_profile.h"
#include "query/query_sequence.h"
#include "storage/btree.h"
#include "vist/scope.h"

namespace vist {

struct MatchContext {
  /// Read views of the combined-entry and DocId trees, resolved from one
  /// pinned Version (the caller's snapshot) so the whole match sees a
  /// single committed state while writers publish newer versions.
  BTreeView entry_tree;
  BTreeView docid_tree;
  /// Deepest prefix ever indexed; bounds the '//' length expansion.
  uint64_t max_depth = 0;
  /// When false, the final DocId range queries are skipped and the result
  /// set stays empty — the measurement mode of the paper's Figure 10
  /// ("does not include the time spent in data output after each range
  /// query on the DocId B+ Tree").
  bool collect_doc_ids = true;
  /// Optional cooperative-cancellation checkpoints (borrowed; owned by the
  /// querying thread's stack). The matcher consults it per entry scanned
  /// and attaches it to its B+ tree iterators; once expired, matching
  /// aborts with DeadlineExceeded within a bounded number of node visits.
  DeadlineChecker* deadline = nullptr;
};

/// Returns the sorted doc ids matching any alternative of the compiled
/// query. `profile` (optional) receives the per-query cost accounting —
/// matcher work (range scans, entries scanned, nodes matched, DocId range
/// queries), the storage deltas (index-node accesses, buffer-pool
/// hits/misses), candidate counts, and matching wall time. See
/// obs/query_profile.h; `candidates`/`verified_results` are set to the
/// result-set size (a later verification stage may lower
/// `verified_results`).
Result<std::vector<uint64_t>> MatchCompiledQuery(
    const MatchContext& context, const query::CompiledQuery& compiled,
    obs::QueryProfile* profile = nullptr);

}  // namespace vist

#endif  // VIST_VIST_MATCHER_H_
