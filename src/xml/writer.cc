#include "xml/writer.h"

#include "common/logging.h"

namespace vist {
namespace xml {
namespace {

void EscapeInto(std::string_view text, bool in_attribute, std::string* out) {
  for (char c : text) {
    switch (c) {
      case '<':
        *out += "&lt;";
        break;
      case '>':
        *out += "&gt;";
        break;
      case '&':
        *out += "&amp;";
        break;
      case '"':
        if (in_attribute) {
          *out += "&quot;";
        } else {
          *out += c;
        }
        break;
      default:
        *out += c;
    }
  }
}

void WriteElement(const Node& node, std::string* out) {
  VIST_CHECK(node.is_element());
  *out += '<';
  *out += node.name();
  bool has_content = false;
  for (const auto& child : node.children()) {
    if (child->is_attribute()) {
      *out += ' ';
      *out += child->name();
      *out += "=\"";
      EscapeInto(child->value(), /*in_attribute=*/true, out);
      *out += '"';
    } else {
      has_content = true;
    }
  }
  if (!has_content) {
    *out += "/>";
    return;
  }
  *out += '>';
  for (const auto& child : node.children()) {
    switch (child->kind()) {
      case NodeKind::kAttribute:
        break;  // already written
      case NodeKind::kText:
        EscapeInto(child->value(), /*in_attribute=*/false, out);
        break;
      case NodeKind::kElement:
        WriteElement(*child, out);
        break;
    }
  }
  *out += "</";
  *out += node.name();
  *out += '>';
}

}  // namespace

std::string WriteNode(const Node& node) {
  std::string out;
  WriteElement(node, &out);
  return out;
}

std::string Write(const Document& doc) {
  if (doc.root() == nullptr) return "";
  return WriteNode(*doc.root());
}

}  // namespace xml
}  // namespace vist
