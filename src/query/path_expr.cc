#include "query/path_expr.h"

namespace vist {
namespace query {
namespace {

std::unique_ptr<QueryNode> MakeNode(QueryNode::Kind kind) {
  auto node = std::make_unique<QueryNode>();
  node->kind = kind;
  return node;
}

// Appends the query-tree chain for one step under `parent` and returns the
// node representing the step itself (i.e., past any '//' link node).
QueryNode* AttachStep(QueryNode* parent, const Step& step) {
  if (step.axis == Axis::kDescendant) {
    parent = parent->AddChild(MakeNode(QueryNode::Kind::kDescendant));
  }
  std::unique_ptr<QueryNode> node;
  if (step.is_wildcard()) {
    node = MakeNode(QueryNode::Kind::kStar);
  } else {
    node = MakeNode(QueryNode::Kind::kName);
    node->name = step.name;
  }
  return parent->AddChild(std::move(node));
}

// True when the subtree contains at least one concrete (name or value)
// node — wildcards are place holders and cannot be sequence elements
// themselves.
bool HasConcreteDescendant(const QueryNode& node) {
  if (node.kind == QueryNode::Kind::kName ||
      node.kind == QueryNode::Kind::kValue) {
    return true;
  }
  for (const auto& child : node.children) {
    if (HasConcreteDescendant(*child)) return true;
  }
  return false;
}

Status AttachPredicates(QueryNode* node, const Step& step);

// Builds the chain for a relative path (predicate body) under `parent`.
Status AttachRelativePath(QueryNode* parent, const std::vector<Step>& steps,
                          const std::optional<std::string>& value) {
  QueryNode* current = parent;
  for (const Step& step : steps) {
    current = AttachStep(current, step);
    VIST_RETURN_IF_ERROR(AttachPredicates(current, step));
  }
  if (value.has_value()) {
    auto leaf = MakeNode(QueryNode::Kind::kValue);
    leaf->value = *value;
    current->AddChild(std::move(leaf));
  }
  return Status::OK();
}

Status AttachPredicates(QueryNode* node, const Step& step) {
  for (const Step::Predicate& pred : step.predicates) {
    if (pred.steps.empty()) {
      if (!pred.value.has_value()) {
        return Status::InvalidArgument("empty predicate");
      }
      auto leaf = MakeNode(QueryNode::Kind::kValue);
      leaf->value = *pred.value;
      node->AddChild(std::move(leaf));
    } else {
      VIST_RETURN_IF_ERROR(
          AttachRelativePath(node, pred.steps, pred.value));
    }
  }
  return Status::OK();
}

Status CheckWildcardsGrounded(const QueryNode& node) {
  if ((node.kind == QueryNode::Kind::kStar ||
       node.kind == QueryNode::Kind::kDescendant) &&
      !HasConcreteDescendant(node)) {
    return Status::NotSupported(
        "a '*' or '//' with nothing concrete beneath it cannot be "
        "expressed as a structure-encoded sequence");
  }
  for (const auto& child : node.children) {
    VIST_RETURN_IF_ERROR(CheckWildcardsGrounded(*child));
  }
  return Status::OK();
}

}  // namespace

Result<QueryTree> BuildQueryTree(const PathExpr& expr) {
  if (expr.steps.empty()) {
    return Status::InvalidArgument("empty path expression");
  }
  // A synthetic super-root holds the first step (which may itself be '//'
  // or '*'); the real query root is its single child chain.
  QueryNode holder;
  QueryNode* first = AttachStep(&holder, expr.steps[0]);
  VIST_RETURN_IF_ERROR(AttachPredicates(first, expr.steps[0]));
  QueryNode* current = first;
  for (size_t i = 1; i < expr.steps.size(); ++i) {
    current = AttachStep(current, expr.steps[i]);
    VIST_RETURN_IF_ERROR(AttachPredicates(current, expr.steps[i]));
  }
  QueryTree tree;
  tree.root = std::move(holder.children[0]);
  VIST_RETURN_IF_ERROR(CheckWildcardsGrounded(*tree.root));
  return tree;
}

std::string ToString(const PathExpr& expr) {
  std::string out;
  for (const Step& step : expr.steps) {
    out += step.axis == Axis::kDescendant ? "//" : "/";
    out += step.is_wildcard() ? "*" : step.name;
    for (const Step::Predicate& pred : step.predicates) {
      out += '[';
      if (pred.steps.empty()) {
        out += "text()";
      } else {
        std::string inner;
        for (const Step& ps : pred.steps) {
          inner += ps.axis == Axis::kDescendant ? "//" : "/";
          inner += ps.is_wildcard() ? "*" : ps.name;
        }
        out += inner.substr(1);  // predicates are relative: drop leading '/'
      }
      if (pred.value.has_value()) {
        out += "='";
        out += *pred.value;
        out += '\'';
      }
      out += ']';
    }
  }
  return out;
}

}  // namespace query
}  // namespace vist
