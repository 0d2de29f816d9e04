#include "vist/splitter.h"

#include <memory>

#include "common/logging.h"

namespace vist {
namespace {

std::unique_ptr<xml::Node> DeepCopy(const xml::Node& node) {
  auto copy = std::make_unique<xml::Node>(node.kind());
  copy->set_name(node.name());
  copy->set_value(node.value());
  for (const auto& child : node.children()) {
    copy->AddChild(DeepCopy(*child));
  }
  return copy;
}

// Builds wrapper elements for the ancestor chain of `node` (root first,
// excluding the node itself) and returns the innermost wrapper.
xml::Node* BuildAncestorChain(const xml::Node& node,
                              std::unique_ptr<xml::Node>* out_root) {
  std::vector<const xml::Node*> chain;
  for (const xml::Node* up = node.parent(); up != nullptr; up = up->parent()) {
    chain.push_back(up);
  }
  xml::Node* current = nullptr;
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    auto wrapper = std::make_unique<xml::Node>(xml::NodeKind::kElement);
    wrapper->set_name((*it)->name());
    if (current == nullptr) {
      *out_root = std::move(wrapper);
      current = out_root->get();
    } else {
      current = current->AddChild(std::move(wrapper));
    }
  }
  return current;
}

struct ResidualCopy {
  std::unique_ptr<xml::Node> copy;
  bool contains_split = false;  // a split point was extracted below here
  bool contentful = false;      // residual payload remains below here
};

// Copies `node`'s subtree, skipping split-element subtrees (they become
// their own records) and emitting a record per split point. The residual
// is "contentful" when it holds anything beyond the bare skeleton of
// split-point ancestors: text, attributes, or whole subtrees that had no
// split points in them.
ResidualCopy CopyResidual(const xml::Node& node,
                          const std::set<std::string>& split_elements,
                          std::vector<xml::Document>* records) {
  ResidualCopy result;
  result.copy = std::make_unique<xml::Node>(node.kind());
  result.copy->set_name(node.name());
  result.copy->set_value(node.value());
  for (const auto& child : node.children()) {
    if (child->is_element() && split_elements.count(child->name()) > 0) {
      std::unique_ptr<xml::Node> record_root;
      xml::Node* anchor = BuildAncestorChain(*child, &record_root);
      if (anchor == nullptr) {
        // The split element is the document root itself.
        records->emplace_back(DeepCopy(*child));
      } else {
        anchor->AddChild(DeepCopy(*child));
        records->emplace_back(std::move(record_root));
      }
      result.contains_split = true;
      continue;
    }
    ResidualCopy child_copy = CopyResidual(*child, split_elements, records);
    result.contains_split |= child_copy.contains_split;
    if (child->is_attribute() || child->is_text()) {
      result.contentful = true;
    } else if (child_copy.contentful || !child_copy.contains_split) {
      // Either payload survived below, or the entire child subtree is
      // payload (no split point was ever inside it).
      result.contentful = true;
    }
    result.copy->AddChild(std::move(child_copy.copy));
  }
  return result;
}

}  // namespace

std::vector<xml::Document> SplitDocument(
    const xml::Node& root, const std::set<std::string>& split_elements) {
  VIST_CHECK(root.is_element());
  std::vector<xml::Document> records;
  if (split_elements.count(root.name()) > 0) {
    records.emplace_back(DeepCopy(root));
    return records;
  }
  ResidualCopy residual = CopyResidual(root, split_elements, &records);
  if (residual.contentful) {
    records.emplace_back(std::move(residual.copy));
  }
  return records;
}

}  // namespace vist
