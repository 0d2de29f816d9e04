#include "seq/sequence.h"

#include <algorithm>

#include "common/logging.h"

namespace vist {
namespace {

// Orders the non-value children of a node for the normalized preorder
// (paper §2: "if the DTD is not available, we simply use the lexicographical
// order of the names"). Stable sort keeps repeated names in document order;
// the arbitrary-but-fixed tie order is what branching-query permutation
// expansion compensates for.
std::vector<const xml::Node*> NormalizedChildren(const xml::Node& node) {
  std::vector<const xml::Node*> named;
  for (const auto& child : node.children()) {
    if (!child->is_text()) named.push_back(child.get());
  }
  std::stable_sort(named.begin(), named.end(),
                   [](const xml::Node* a, const xml::Node* b) {
                     return a->name() < b->name();
                   });
  return named;
}

void EmitSubtree(const xml::Node& node, SymbolTable* symtab,
                 std::vector<Symbol>* path, Sequence* out) {
  const Symbol symbol = symtab->Intern(node.name());
  out->push_back({symbol, *path});

  path->push_back(symbol);
  // Value children first: the node's own value binds tighter than any
  // sub-structure. Attributes contribute their value; elements their text.
  if (node.is_attribute()) {
    if (!node.value().empty()) {
      out->push_back({SymbolTable::ValueSymbol(node.value()), *path});
    }
  } else {
    for (const auto& child : node.children()) {
      if (child->is_text() && !child->value().empty()) {
        out->push_back({SymbolTable::ValueSymbol(child->value()), *path});
      }
    }
  }
  for (const xml::Node* child : NormalizedChildren(node)) {
    EmitSubtree(*child, symtab, path, out);
  }
  path->pop_back();
}

}  // namespace

Sequence BuildSequence(const xml::Node& root, SymbolTable* symtab) {
  VIST_CHECK(!root.is_text()) << "cannot build a sequence from a text node";
  Sequence out;
  out.reserve(root.SubtreeSize());
  std::vector<Symbol> path;
  EmitSubtree(root, symtab, &path, &out);
  return out;
}

bool PrefixPatternMatches(const std::vector<Symbol>& pattern,
                          const std::vector<Symbol>& prefix) {
  // Classic wildcard matching: '*' consumes exactly one symbol, '//' any
  // (possibly empty) run. Iterative two-pointer algorithm with backtracking
  // to the last '//'.
  size_t p = 0;       // position in pattern
  size_t s = 0;       // position in prefix
  size_t star = std::string::npos;  // pattern pos after the last '//'
  size_t match = 0;   // prefix pos the last '//' expansion resumed from
  while (s < prefix.size()) {
    if (p < pattern.size() &&
        (pattern[p] == kStarSymbol || pattern[p] == prefix[s])) {
      ++p;
      ++s;
    } else if (p < pattern.size() && pattern[p] == kDescendantSymbol) {
      star = ++p;
      match = s;
    } else if (star != std::string::npos) {
      p = star;
      s = ++match;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == kDescendantSymbol) ++p;
  return p == pattern.size();
}

std::string SequenceToString(const Sequence& seq, const SymbolTable& symtab) {
  auto render = [&symtab](Symbol s) -> std::string {
    if (s == kStarSymbol) return "*";
    if (s == kDescendantSymbol) return "//";
    if (IsValueSymbol(s)) {
      return "v" + std::to_string(s & ~kValueSymbolBit).substr(0, 4);
    }
    auto name = symtab.Name(s);
    return name.ok() ? *name : "?";
  };
  std::string out;
  for (const SequenceElement& e : seq) {
    out += '(';
    out += render(e.symbol);
    out += ',';
    for (Symbol p : e.prefix) out += render(p);
    out += ')';
  }
  return out;
}

}  // namespace vist
