// Query trees → structure-encoded query sequences (paper §2, Table 2).
//
// Each query-tree variant yields one QuerySequence: the normalized preorder
// of the tree's concrete (name/value) nodes, where wildcard nodes are
// discarded but leave kStarSymbol / kDescendantSymbol place holders in
// their descendants' prefix patterns.
//
// Every element also records the sequence index of its query-tree parent.
// This is what lets the matcher instantiate wildcards exactly as §3.3
// prescribes ("the matching of (L,P*) will instantiate the '*' in
// (v2,P*L)"): by construction an element's pattern equals
//
//   pattern(parent) ‖ symbol(parent) ‖ <wildcards only>
//
// so once the parent is matched to a concrete node, the only unresolved
// pattern positions are a trailing run of wildcards — precisely the "range
// query" case of the paper.
//
// A query can compile to *several* sequences whose results are unioned
// (paper's Q5 discussion): sibling subtrees under the same branch whose
// order in the data cannot be predicted (same-named children, and children
// under '*'/'//' whose matched name is unknown) are expanded into every
// order consistent with the data normalization (names non-decreasing,
// wildcard-rooted subtrees anywhere).

#ifndef VIST_QUERY_QUERY_SEQUENCE_H_
#define VIST_QUERY_QUERY_SEQUENCE_H_

#include <vector>

#include "common/result.h"
#include "query/path_expr.h"
#include "seq/sequence.h"
#include "seq/symbol_table.h"

namespace vist {
namespace query {

/// One element of a query sequence.
struct QuerySequenceElement {
  /// Concrete name or value symbol (never a wildcard).
  Symbol symbol = kInvalidSymbol;
  /// Prefix pattern; may contain kStarSymbol / kDescendantSymbol.
  std::vector<Symbol> pattern;
  /// Index (in the same QuerySequence) of this element's query-tree parent,
  /// or -1 for the first element.
  int parent = -1;

  bool operator==(const QuerySequenceElement& other) const {
    return symbol == other.symbol && pattern == other.pattern &&
           parent == other.parent;
  }
};

using QuerySequence = std::vector<QuerySequenceElement>;

/// Upper bound on the number of alternative sequences produced by
/// permutation expansion; exceeding it is a NotSupported error (the
/// paper's fallback for this case — disassembling into joined
/// sub-queries — trades away the very join-freedom ViST exists for).
inline constexpr size_t kMaxAlternatives = 64;

/// A compiled query: the union of its alternative sequences. An empty
/// `alternatives` vector means the query provably matches nothing (it names
/// an element that no indexed document ever contained).
struct CompiledQuery {
  std::vector<QuerySequence> alternatives;
};

/// Compiles a query tree against the index's symbol table.
Result<CompiledQuery> CompileQuery(const QueryTree& tree,
                                   const SymbolTable& symtab);

/// Convenience: parse + lower + compile a path-expression string.
Result<CompiledQuery> CompilePath(std::string_view path,
                                  const SymbolTable& symtab);

/// Reference matcher with exactly the index's semantics (Algorithm 2 on a
/// single sequence): used as the test oracle and by the naive baseline.
/// True when `query` matches `data` as a non-contiguous subsequence with
/// parent-instantiated wildcard patterns.
bool MatchesSequence(const QuerySequence& query, const Sequence& data);

/// True when any alternative matches.
bool MatchesAny(const CompiledQuery& compiled, const Sequence& data);

}  // namespace query
}  // namespace vist

#endif  // VIST_QUERY_QUERY_SEQUENCE_H_
