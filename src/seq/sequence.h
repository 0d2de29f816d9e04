// Structure-encoded sequences (paper §2, Definition 1).
//
// A document tree becomes the preorder sequence of (symbol, prefix) pairs,
// where `prefix` is the root-to-parent path of name symbols. To make
// preorder unique across isomorphic trees (§2), sibling subtrees are
// normalized: value children first, then attribute/element children sorted
// by name (stable for repeated names — the paper orders multiple same-named
// children arbitrarily, and branching queries compensate by permutation,
// see query/query_sequence.h).
//
// The same normalization is applied to query trees so that data order and
// query order always agree.

#ifndef VIST_SEQ_SEQUENCE_H_
#define VIST_SEQ_SEQUENCE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "seq/symbol_table.h"
#include "xml/node.h"

namespace vist {

/// One (symbol, prefix) pair of a structure-encoded sequence.
struct SequenceElement {
  Symbol symbol = kInvalidSymbol;
  std::vector<Symbol> prefix;

  bool operator==(const SequenceElement& other) const {
    return symbol == other.symbol && prefix == other.prefix;
  }
};

/// A full structure-encoded sequence.
using Sequence = std::vector<SequenceElement>;

/// Converts a document subtree rooted at `root` into its structure-encoded
/// sequence, interning names into `symtab`. Element text and attribute
/// values become value symbols: the paper indexes content and structure
/// together.
Sequence BuildSequence(const xml::Node& root, SymbolTable* symtab);

/// True when query prefix `pattern` (which may contain kStarSymbol /
/// kDescendantSymbol) matches the concrete `prefix`.
bool PrefixPatternMatches(const std::vector<Symbol>& pattern,
                          const std::vector<Symbol>& prefix);

/// Debug form, e.g. "(S,P)(N,PS)" with symbols rendered via `symtab`.
std::string SequenceToString(const Sequence& seq, const SymbolTable& symtab);

}  // namespace vist

#endif  // VIST_SEQ_SEQUENCE_H_
