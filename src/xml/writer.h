// Serializes a Document back to XML text.

#ifndef VIST_XML_WRITER_H_
#define VIST_XML_WRITER_H_

#include <string>

#include "xml/node.h"

namespace vist {
namespace xml {

/// Returns the XML text for `doc` (no <?xml?> declaration): one line with
/// no inter-element whitespace, so it round-trips through the parser.
std::string Write(const Document& doc);

/// Serializes a single subtree.
std::string WriteNode(const Node& node);

}  // namespace xml
}  // namespace vist

#endif  // VIST_XML_WRITER_H_
