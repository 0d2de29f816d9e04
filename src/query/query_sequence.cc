#include "query/query_sequence.h"

#include <algorithm>
#include <functional>

#include "common/logging.h"
#include "obs/metrics.h"
#include "query/path_parser.h"

namespace vist {
namespace query {
namespace {

bool IsWildcardNode(const QueryNode& node) {
  return node.kind == QueryNode::Kind::kStar ||
         node.kind == QueryNode::Kind::kDescendant;
}

// Enumerates the child orders consistent with data normalization: value
// children first (fixed), then the named/wildcard children in every order
// where names are non-decreasing and wildcard-rooted subtrees float freely.
// Appends each complete order to `out`, stopping at `limit` orders.
void EnumerateChildOrders(const std::vector<const QueryNode*>& values,
                          std::vector<const QueryNode*> rest,
                          std::vector<const QueryNode*>* current,
                          std::vector<std::vector<const QueryNode*>>* out,
                          size_t limit) {
  if (out->size() >= limit) return;
  if (rest.empty()) {
    std::vector<const QueryNode*> order = values;
    order.insert(order.end(), current->begin(), current->end());
    out->push_back(std::move(order));
    return;
  }
  // Minimal name among remaining named children.
  std::string min_name;
  bool has_named = false;
  for (const QueryNode* node : rest) {
    if (!IsWildcardNode(*node)) {
      if (!has_named || node->name < min_name) min_name = node->name;
      has_named = true;
    }
  }
  for (size_t i = 0; i < rest.size(); ++i) {
    const QueryNode* candidate = rest[i];
    if (!IsWildcardNode(*candidate) && candidate->name != min_name) continue;
    std::vector<const QueryNode*> remaining = rest;
    remaining.erase(remaining.begin() + i);
    current->push_back(candidate);
    EnumerateChildOrders(values, std::move(remaining), current, out, limit);
    current->pop_back();
    if (out->size() >= limit) return;
  }
}

std::vector<std::vector<const QueryNode*>> ChildOrders(const QueryNode& node,
                                                       size_t limit) {
  std::vector<const QueryNode*> values;
  std::vector<const QueryNode*> rest;
  for (const auto& child : node.children) {
    if (child->kind == QueryNode::Kind::kValue) {
      values.push_back(child.get());
    } else {
      rest.push_back(child.get());
    }
  }
  // EnumerateChildOrders yields names in non-decreasing order by always
  // choosing a minimal remaining name (permuting equal names) and floating
  // wildcards; no pre-sorting needed.
  std::vector<std::vector<const QueryNode*>> orders;
  std::vector<const QueryNode*> current;
  EnumerateChildOrders(values, std::move(rest), &current, &orders, limit);
  return orders;
}

// Recursive emission of all alternative sequences for the subtree at
// `node`. Each partial sequence in `acc` is extended by every combination
// of child orders below this node (cartesian product, capped).
struct Emitter {
  const SymbolTable& symtab;
  bool unknown_name = false;

  // Emits `node` into every sequence in `acc`, then recursively its
  // children in every admissible order. `pattern` is the prefix pattern to
  // this node; `parent` the sequence index of the query-tree parent.
  Result<std::vector<QuerySequence>> EmitNode(
      const QueryNode& node, std::vector<QuerySequence> acc,
      const std::vector<Symbol>& pattern, int parent) {
    Symbol symbol = kInvalidSymbol;
    std::vector<Symbol> child_pattern = pattern;
    int child_parent = parent;
    const bool concrete = !IsWildcardNode(node);
    if (node.kind == QueryNode::Kind::kName) {
      auto looked_up = symtab.Lookup(node.name);
      if (!looked_up.ok()) {
        unknown_name = true;
        return std::vector<QuerySequence>{};
      }
      symbol = *looked_up;
    } else if (node.kind == QueryNode::Kind::kValue) {
      symbol = SymbolTable::ValueSymbol(node.value);
    }
    if (concrete) {
      for (QuerySequence& seq : acc) {
        seq.push_back({symbol, pattern, parent});
      }
      child_pattern.push_back(symbol);
      // All sequences in acc have this node at the same index because they
      // share the emission path above it.
      child_parent = acc.empty() ? -1 : static_cast<int>(acc[0].size()) - 1;
    } else {
      child_pattern.push_back(node.kind == QueryNode::Kind::kStar
                                  ? kStarSymbol
                                  : kDescendantSymbol);
    }
    if (node.children.empty()) return acc;

    // kMaxAlternatives + 1 so that an over-cap expansion is detected below
    // rather than silently truncated (dropping alternatives would drop
    // matches).
    auto orders = ChildOrders(node, kMaxAlternatives + 1);
    std::vector<QuerySequence> result;
    for (const auto& order : orders) {
      std::vector<QuerySequence> branch = acc;
      for (const QueryNode* child : order) {
        VIST_ASSIGN_OR_RETURN(
            branch, EmitNode(*child, std::move(branch), child_pattern,
                             child_parent));
        if (unknown_name) return std::vector<QuerySequence>{};
      }
      for (QuerySequence& seq : branch) {
        result.push_back(std::move(seq));
        if (result.size() > kMaxAlternatives) {
          return Status::NotSupported(
              "query expands to too many alternative sequences "
              "(same-named branches / wildcard siblings)");
        }
      }
    }
    return result;
  }
};

}  // namespace

Result<CompiledQuery> CompileQuery(const QueryTree& tree,
                                   const SymbolTable& symtab) {
  VIST_CHECK(tree.root != nullptr);
  Emitter emitter{symtab};
  std::vector<QuerySequence> seed(1);
  VIST_ASSIGN_OR_RETURN(
      std::vector<QuerySequence> alternatives,
      emitter.EmitNode(*tree.root, std::move(seed), {}, -1));
  if (emitter.unknown_name) return CompiledQuery{};  // provably empty

  // Dedupe identical alternatives (same-named children with identical
  // subtrees produce duplicates).
  std::sort(alternatives.begin(), alternatives.end(),
            [](const QuerySequence& a, const QuerySequence& b) {
              if (a.size() != b.size()) return a.size() < b.size();
              for (size_t i = 0; i < a.size(); ++i) {
                if (!(a[i] == b[i])) {
                  if (a[i].symbol != b[i].symbol) {
                    return a[i].symbol < b[i].symbol;
                  }
                  if (a[i].parent != b[i].parent) {
                    return a[i].parent < b[i].parent;
                  }
                  return a[i].pattern < b[i].pattern;
                }
              }
              return false;
            });
  alternatives.erase(std::unique(alternatives.begin(), alternatives.end()),
                     alternatives.end());
  // Metric reference: docs/OBSERVABILITY.md (query section). The histogram
  // tracks permutation expansion — the cost driver for branching queries.
  static obs::Counter& compiles = obs::GetCounter("query.compiles");
  static obs::Histogram& alternatives_hist =
      obs::GetHistogram("query.compile.alternatives");
  compiles.Increment();
  alternatives_hist.Record(alternatives.size());
  return CompiledQuery{std::move(alternatives)};
}

Result<CompiledQuery> CompilePath(std::string_view path,
                                  const SymbolTable& symtab) {
  VIST_ASSIGN_OR_RETURN(PathExpr expr, ParsePath(path));
  VIST_ASSIGN_OR_RETURN(QueryTree tree, BuildQueryTree(expr));
  return CompileQuery(tree, symtab);
}

namespace {

// Checks a concrete data prefix against a query element's pattern given its
// parent's concrete match: the bound part must match exactly, the trailing
// wildcards by arity ('*' = 1, '//' = unbounded).
bool PrefixCompatible(const QuerySequenceElement& elem,
                      const std::vector<Symbol>& required,
                      size_t tail_from, const std::vector<Symbol>& concrete) {
  if (concrete.size() < required.size()) return false;
  if (!std::equal(required.begin(), required.end(), concrete.begin())) {
    return false;
  }
  size_t min_extra = 0;
  bool unbounded = false;
  for (size_t i = tail_from; i < elem.pattern.size(); ++i) {
    if (elem.pattern[i] == kStarSymbol) {
      ++min_extra;
    } else if (elem.pattern[i] == kDescendantSymbol) {
      unbounded = true;
    } else {
      // By construction the tail holds wildcards only.
      VIST_CHECK(false) << "non-wildcard in pattern tail";
    }
  }
  const size_t extra = concrete.size() - required.size();
  return unbounded ? extra >= min_extra : extra == min_extra;
}

bool MatchFrom(const QuerySequence& query, const Sequence& data, size_t qi,
               size_t from, std::vector<size_t>* assignment) {
  if (qi == query.size()) return true;
  const QuerySequenceElement& elem = query[qi];
  std::vector<Symbol> required;
  size_t tail_from = 0;
  if (elem.parent >= 0) {
    const QuerySequenceElement& parent = query[elem.parent];
    const SequenceElement& bound = data[(*assignment)[elem.parent]];
    required = bound.prefix;
    required.push_back(bound.symbol);
    tail_from = parent.pattern.size() + 1;
  }
  for (size_t pos = from; pos < data.size(); ++pos) {
    if (data[pos].symbol != elem.symbol) continue;
    if (!PrefixCompatible(elem, required, tail_from, data[pos].prefix)) {
      continue;
    }
    (*assignment)[qi] = pos;
    if (MatchFrom(query, data, qi + 1, pos + 1, assignment)) return true;
  }
  return false;
}

}  // namespace

bool MatchesSequence(const QuerySequence& query, const Sequence& data) {
  if (query.empty()) return true;
  std::vector<size_t> assignment(query.size());
  return MatchFrom(query, data, 0, 0, &assignment);
}

bool MatchesAny(const CompiledQuery& compiled, const Sequence& data) {
  for (const QuerySequence& alt : compiled.alternatives) {
    if (MatchesSequence(alt, data)) return true;
  }
  return false;
}

}  // namespace query
}  // namespace vist
