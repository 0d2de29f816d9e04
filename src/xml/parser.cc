#include "xml/parser.h"

#include <cctype>
#include <fstream>
#include <sstream>
#include <string>

namespace vist {
namespace xml {
namespace {

bool IsNameStartChar(char c) {
  return isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
}

bool IsNameChar(char c) {
  return IsNameStartChar(c) || isdigit(static_cast<unsigned char>(c)) ||
         c == '-' || c == '.';
}

bool IsWhitespaceOnly(std::string_view s) {
  for (char c : s) {
    if (!isspace(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

class Parser {
 public:
  explicit Parser(std::string_view input) : input_(input) {}

  Result<Document> Run() {
    SkipMisc();
    if (Eof()) return Error("document has no root element");
    auto root = ParseElement();
    if (!root.ok()) return root.status();
    SkipMisc();
    if (!Eof()) return Error("content after the root element");
    return Document(std::move(root).value());
  }

 private:
  bool Eof() const { return pos_ >= input_.size(); }
  char Peek() const { return input_[pos_]; }
  bool Lookahead(std::string_view s) const {
    return input_.substr(pos_, s.size()) == s;
  }

  void Advance(size_t n) {
    for (size_t i = 0; i < n && pos_ < input_.size(); ++i) {
      if (input_[pos_] == '\n') {
        ++line_;
        column_ = 1;
      } else {
        ++column_;
      }
      ++pos_;
    }
  }

  void SkipWhitespace() {
    while (!Eof() && isspace(static_cast<unsigned char>(Peek()))) Advance(1);
  }

  Status Error(std::string_view msg) const {
    std::ostringstream os;
    os << "line " << line_ << ", column " << column_ << ": " << msg;
    return Status::ParseError(os.str());
  }

  /// Skips whitespace, comments, the XML declaration, processing
  /// instructions, and a DOCTYPE declaration.
  void SkipMisc() {
    while (true) {
      SkipWhitespace();
      if (Lookahead("<!--")) {
        size_t end = input_.find("-->", pos_ + 4);
        Advance((end == std::string_view::npos ? input_.size()
                                               : end + 3) - pos_);
      } else if (Lookahead("<?")) {
        size_t end = input_.find("?>", pos_ + 2);
        Advance((end == std::string_view::npos ? input_.size()
                                               : end + 2) - pos_);
      } else if (Lookahead("<!DOCTYPE")) {
        // Skip to the matching '>' allowing one level of [...] subset.
        int depth = 0;
        while (!Eof()) {
          char c = Peek();
          Advance(1);
          if (c == '[') ++depth;
          if (c == ']') --depth;
          if (c == '>' && depth == 0) break;
        }
      } else {
        return;
      }
    }
  }

  Result<std::string> ParseName() {
    if (Eof() || !IsNameStartChar(Peek())) {
      return Error("expected a name");
    }
    size_t start = pos_;
    while (!Eof() && IsNameChar(Peek())) Advance(1);
    return std::string(input_.substr(start, pos_ - start));
  }

  /// Decodes entities in raw character data / attribute values.
  Result<std::string> DecodeText(std::string_view raw) {
    std::string out;
    out.reserve(raw.size());
    for (size_t i = 0; i < raw.size();) {
      if (raw[i] != '&') {
        out += raw[i++];
        continue;
      }
      size_t semi = raw.find(';', i + 1);
      if (semi == std::string_view::npos) {
        return Error("unterminated entity reference");
      }
      std::string_view entity = raw.substr(i + 1, semi - i - 1);
      if (entity == "lt") {
        out += '<';
      } else if (entity == "gt") {
        out += '>';
      } else if (entity == "amp") {
        out += '&';
      } else if (entity == "quot") {
        out += '"';
      } else if (entity == "apos") {
        out += '\'';
      } else if (!entity.empty() && entity[0] == '#') {
        long code = 0;
        bool ok = false;
        if (entity.size() > 1 && (entity[1] == 'x' || entity[1] == 'X')) {
          char* end = nullptr;
          std::string digits(entity.substr(2));
          code = strtol(digits.c_str(), &end, 16);
          ok = end != nullptr && *end == '\0' && !digits.empty();
        } else {
          char* end = nullptr;
          std::string digits(entity.substr(1));
          code = strtol(digits.c_str(), &end, 10);
          ok = end != nullptr && *end == '\0' && !digits.empty();
        }
        if (!ok || code <= 0 || code > 0x10FFFF) {
          return Error("bad character reference");
        }
        // UTF-8 encode the code point.
        if (code < 0x80) {
          out += static_cast<char>(code);
        } else if (code < 0x800) {
          out += static_cast<char>(0xC0 | (code >> 6));
          out += static_cast<char>(0x80 | (code & 0x3F));
        } else if (code < 0x10000) {
          out += static_cast<char>(0xE0 | (code >> 12));
          out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
          out += static_cast<char>(0x80 | (code & 0x3F));
        } else {
          out += static_cast<char>(0xF0 | (code >> 18));
          out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
          out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
          out += static_cast<char>(0x80 | (code & 0x3F));
        }
      } else {
        return Error("unknown entity '&" + std::string(entity) + ";'");
      }
      i = semi + 1;
    }
    return out;
  }

  Result<std::unique_ptr<Node>> ParseElement() {
    if (depth_ >= kMaxDepth) {
      return Error("element nesting deeper than max_depth " +
                   std::to_string(kMaxDepth));
    }
    ++depth_;
    auto result = ParseElementInner();
    --depth_;
    return result;
  }

  Result<std::unique_ptr<Node>> ParseElementInner() {
    if (!Lookahead("<")) return Error("expected '<'");
    Advance(1);
    VIST_ASSIGN_OR_RETURN(std::string name, ParseName());
    auto element = std::make_unique<Node>(NodeKind::kElement);
    element->set_name(name);

    // Attributes.
    while (true) {
      SkipWhitespace();
      if (Eof()) return Error("unterminated start tag <" + name);
      if (Peek() == '>' || Lookahead("/>")) break;
      VIST_ASSIGN_OR_RETURN(std::string attr_name, ParseName());
      SkipWhitespace();
      if (Eof() || Peek() != '=') return Error("expected '=' after attribute");
      Advance(1);
      SkipWhitespace();
      if (Eof() || (Peek() != '"' && Peek() != '\'')) {
        return Error("expected quoted attribute value");
      }
      const char quote = Peek();
      Advance(1);
      size_t start = pos_;
      while (!Eof() && Peek() != quote) {
        if (Peek() == '<') return Error("'<' in attribute value");
        Advance(1);
      }
      if (Eof()) return Error("unterminated attribute value");
      VIST_ASSIGN_OR_RETURN(
          std::string value,
          DecodeText(input_.substr(start, pos_ - start)));
      Advance(1);  // closing quote
      if (!element->Attribute(attr_name).empty()) {
        return Error("duplicate attribute '" + attr_name + "'");
      }
      element->AddAttribute(attr_name, value);
    }

    if (Lookahead("/>")) {
      Advance(2);
      return element;
    }
    Advance(1);  // '>'

    // Content.
    while (true) {
      if (Eof()) return Error("unterminated element <" + name + ">");
      if (Lookahead("</")) {
        Advance(2);
        VIST_ASSIGN_OR_RETURN(std::string close_name, ParseName());
        if (close_name != name) {
          return Error("mismatched close tag </" + close_name +
                       "> for <" + name + ">");
        }
        SkipWhitespace();
        if (Eof() || Peek() != '>') return Error("expected '>' in close tag");
        Advance(1);
        return element;
      }
      if (Lookahead("<!--")) {
        size_t end = input_.find("-->", pos_ + 4);
        if (end == std::string_view::npos) return Error("unterminated comment");
        Advance(end + 3 - pos_);
        continue;
      }
      if (Lookahead("<![CDATA[")) {
        size_t end = input_.find("]]>", pos_ + 9);
        if (end == std::string_view::npos) return Error("unterminated CDATA");
        std::string_view cdata = input_.substr(pos_ + 9, end - (pos_ + 9));
        element->AddText(cdata);
        Advance(end + 3 - pos_);
        continue;
      }
      if (Lookahead("<?")) {
        size_t end = input_.find("?>", pos_ + 2);
        if (end == std::string_view::npos) return Error("unterminated PI");
        Advance(end + 2 - pos_);
        continue;
      }
      if (Peek() == '<') {
        VIST_ASSIGN_OR_RETURN(std::unique_ptr<Node> child, ParseElement());
        element->AddChild(std::move(child));
        continue;
      }
      // Character data up to the next markup.
      size_t start = pos_;
      while (!Eof() && Peek() != '<') Advance(1);
      std::string_view raw = input_.substr(start, pos_ - start);
      if (!IsWhitespaceOnly(raw)) {
        VIST_ASSIGN_OR_RETURN(std::string text, DecodeText(raw));
        element->AddText(text);
      }
    }
  }

  std::string_view input_;
  size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
  int depth_ = 0;
};

}  // namespace

Result<Document> Parse(std::string_view input) {
  Parser parser(input);
  return parser.Run();
}

Result<Document> ParseFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string contents = buffer.str();
  return Parse(contents);
}

}  // namespace xml
}  // namespace vist
