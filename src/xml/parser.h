// A small, strict XML parser for the subset the index consumes.
//
// Supported: prolog, comments, DOCTYPE (skipped), elements, attributes with
// single- or double-quoted values, character data, CDATA sections, the five
// predefined entities plus decimal/hex character references, self-closing
// tags. Not supported (rejected or skipped): namespaces processing beyond
// treating "a:b" as a plain name, processing instructions (skipped), and
// external entities (rejected — also the safe choice).

#ifndef VIST_XML_PARSER_H_
#define VIST_XML_PARSER_H_

#include <string_view>

#include "common/result.h"
#include "xml/node.h"

namespace vist {
namespace xml {

/// Maximum element nesting depth; deeper input is rejected (protects
/// the recursive-descent parser's stack against adversarial input).
inline constexpr int kMaxDepth = 512;

/// Parses one well-formed XML document. Errors carry 1-based line/column.
/// Text nodes that are entirely whitespace are dropped (the usual choice
/// for data-oriented XML; keeps sequences free of formatting noise).
Result<Document> Parse(std::string_view input);

/// Parses a file from disk.
Result<Document> ParseFile(const std::string& path);

}  // namespace xml
}  // namespace vist

#endif  // VIST_XML_PARSER_H_
