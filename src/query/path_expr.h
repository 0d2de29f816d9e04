// Query representation: path expressions and query trees.
//
// The supported language is the XPath subset the paper evaluates (§1 Fig. 2,
// §4 Table 3): absolute paths of child ('/') and descendant ('//') steps,
// name tests, '*' wildcards, attribute steps ('@name'), existence
// predicates '[relpath]', and equality predicates '[relpath = "v"]' /
// '[text() = "v"]' / '[. = "v"]'.
//
// A parsed PathExpr is lowered to a QueryTree — the graph form of Figure 2 —
// whose nodes are element/attribute name tests, wildcards, and value leaves.
// The query tree is what gets converted to structure-encoded query
// sequences (query/query_sequence.h) and what the verifier embeds against
// documents.

#ifndef VIST_QUERY_PATH_EXPR_H_
#define VIST_QUERY_PATH_EXPR_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"

namespace vist {
namespace query {

enum class Axis {
  kChild,       // '/'
  kDescendant,  // '//'
};

/// One location step plus its predicates.
struct Step {
  Axis axis = Axis::kChild;
  /// Name test; empty string means '*'. Attribute steps store the bare name
  /// (attributes are ordinary nodes in the data model, so '@' only affects
  /// parsing).
  std::string name;
  /// '[relpath]' and '[relpath = value]' predicates. A predicate with an
  /// empty `steps` list tests this step's own value ('[text()="v"]').
  struct Predicate {
    std::vector<Step> steps;
    std::optional<std::string> value;
  };
  std::vector<Predicate> predicates;

  bool is_wildcard() const { return name.empty(); }
};

/// An absolute path expression.
struct PathExpr {
  std::vector<Step> steps;
};

/// A node of the query tree (the graph form of the paper's Figure 2).
struct QueryNode {
  enum class Kind {
    kName,        // element/attribute name test
    kStar,        // '*'  — matches exactly one node of any name
    kDescendant,  // '//' — matches any chain of zero or more nodes
    kValue,       // leaf value equality test
  };

  Kind kind = Kind::kName;
  std::string name;   // kName
  std::string value;  // kValue
  std::vector<std::unique_ptr<QueryNode>> children;

  QueryNode* AddChild(std::unique_ptr<QueryNode> child) {
    children.push_back(std::move(child));
    return children.back().get();
  }
};

struct QueryTree {
  std::unique_ptr<QueryNode> root;
};

/// Lowers a parsed path expression to a query tree. Fails (NotSupported)
/// for shapes the sequence encoding cannot express, e.g. a '*' or '//' with
/// no named/value node beneath it ("/a/*" — the wildcard would have to be
/// emitted as a sequence element, but wildcards are place holders only).
Result<QueryTree> BuildQueryTree(const PathExpr& expr);

/// Renders the expression back to path syntax (debugging / logging).
std::string ToString(const PathExpr& expr);

}  // namespace query
}  // namespace vist

#endif  // VIST_QUERY_PATH_EXPR_H_
