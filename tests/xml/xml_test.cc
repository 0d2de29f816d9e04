#include <gtest/gtest.h>

#include "xml/node.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace vist {
namespace xml {
namespace {

TEST(NodeTest, BuilderConstructsPaperExample) {
  // The purchase record of Figure 3.
  Document doc = Document::WithRoot("purchase");
  Node* seller = doc.root()->AddElement("seller");
  seller->AddAttribute("name", "dell");
  Node* item = seller->AddElement("item");
  item->AddAttribute("manufacturer", "ibm");
  item->AddAttribute("name", "part#1");
  Node* buyer = doc.root()->AddElement("buyer");
  buyer->AddAttribute("location", "newyork");

  EXPECT_EQ(doc.root()->num_children(), 2u);
  EXPECT_EQ(seller->Attribute("name"), "dell");
  EXPECT_EQ(item->parent(), seller);
  EXPECT_EQ(doc.root()->FindChildElement("buyer"), buyer);
  EXPECT_EQ(doc.root()->FindChildElement("nothing"), nullptr);
  // purchase, seller, @name, item, @manufacturer, @name, buyer, @location
  EXPECT_EQ(doc.root()->SubtreeSize(), 8u);
}

TEST(ParserTest, SimpleDocument) {
  auto doc = Parse("<a><b x=\"1\">hi</b><c/></a>");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  Node* root = doc->root();
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->name(), "a");
  ASSERT_EQ(root->num_children(), 2u);
  Node* b = root->child(0);
  EXPECT_EQ(b->name(), "b");
  EXPECT_EQ(b->Attribute("x"), "1");
  EXPECT_EQ(b->Text(), "hi");
  EXPECT_EQ(root->child(1)->name(), "c");
}

TEST(ParserTest, PrologCommentsDoctypeSkipped) {
  auto doc = Parse(
      "<?xml version=\"1.0\"?>\n"
      "<!DOCTYPE purchases [ <!ELEMENT purchase (seller, buyer)> ]>\n"
      "<!-- a comment -->\n"
      "<root><!-- inner --><child/></root>\n"
      "<!-- trailing -->");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->root()->name(), "root");
  EXPECT_EQ(doc->root()->num_children(), 1u);
}

TEST(ParserTest, EntitiesDecoded) {
  auto doc = Parse("<a b=\"x &amp; y\">&lt;tag&gt; &#65;&#x42; &apos;q&quot;</a>");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->root()->Attribute("b"), "x & y");
  EXPECT_EQ(doc->root()->Text(), "<tag> AB 'q\"");
}

TEST(ParserTest, CdataPreserved) {
  auto doc = Parse("<a><![CDATA[raw <stuff> & more]]></a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root()->Text(), "raw <stuff> & more");
}

TEST(ParserTest, WhitespaceTextDropped) {
  auto doc = Parse("<a>\n  <b/>\n</a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root()->num_children(), 1u);
}

TEST(ParserTest, MixedContent) {
  auto doc = Parse("<p>one <b>two</b> three</p>");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->root()->num_children(), 3u);
  EXPECT_TRUE(doc->root()->child(0)->is_text());
  EXPECT_TRUE(doc->root()->child(1)->is_element());
  EXPECT_TRUE(doc->root()->child(2)->is_text());
}

TEST(ParserTest, SingleQuotedAttributes) {
  auto doc = Parse("<a x='1' y=\"2\"/>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root()->Attribute("x"), "1");
  EXPECT_EQ(doc->root()->Attribute("y"), "2");
}

struct BadInput {
  const char* name;
  const char* input;
};

class ParserErrorTest : public ::testing::TestWithParam<BadInput> {};

TEST_P(ParserErrorTest, RejectsMalformedInput) {
  auto doc = Parse(GetParam().input);
  EXPECT_FALSE(doc.ok()) << GetParam().name;
  EXPECT_TRUE(doc.status().IsParseError()) << doc.status().ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, ParserErrorTest,
    ::testing::Values(
        BadInput{"empty", ""},
        BadInput{"text_only", "just text"},
        BadInput{"unclosed_root", "<a><b></b>"},
        BadInput{"mismatched_tags", "<a></b>"},
        BadInput{"two_roots", "<a/><b/>"},
        BadInput{"bad_attr_no_value", "<a x></a>"},
        BadInput{"bad_attr_unquoted", "<a x=1></a>"},
        BadInput{"duplicate_attr", "<a x=\"1\" x=\"2\"/>"},
        BadInput{"lt_in_attr", "<a x=\"<\"/>"},
        BadInput{"unknown_entity", "<a>&nope;</a>"},
        BadInput{"unterminated_entity", "<a>&amp</a>"},
        BadInput{"bad_charref", "<a>&#xZZ;</a>"},
        BadInput{"unterminated_cdata", "<a><![CDATA[x</a>"},
        BadInput{"content_after_root", "<a/>trailing"}),
    [](const ::testing::TestParamInfo<BadInput>& info) {
      return info.param.name;
    });

TEST(ParserTest, ErrorsCarryLineNumbers) {
  auto doc = Parse("<a>\n<b>\n</c>\n</a>");
  ASSERT_FALSE(doc.ok());
  EXPECT_NE(doc.status().message().find("line 3"), std::string::npos)
      << doc.status().message();
}

TEST(WriterTest, RoundTripCompact) {
  const char* input =
      "<purchase><seller ID=\"s1\" name=\"dell &amp; co\">"
      "<item name=\"part#1\">desc &lt;here&gt;</item></seller>"
      "<buyer location=\"newyork\"/></purchase>";
  auto doc = Parse(input);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  std::string out = Write(*doc);
  auto reparsed = Parse(out);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString() << "\n" << out;
  EXPECT_TRUE(doc->root()->DeepEquals(*reparsed->root())) << out;
}

TEST(WriterTest, EscapesSpecials) {
  Document doc = Document::WithRoot("a");
  doc.root()->AddAttribute("q", "say \"hi\" & <go>");
  doc.root()->AddText("1 < 2 & 3 > 2");
  std::string out = Write(doc);
  auto reparsed = Parse(out);
  ASSERT_TRUE(reparsed.ok()) << out;
  EXPECT_EQ(reparsed->root()->Attribute("q"), "say \"hi\" & <go>");
  EXPECT_EQ(reparsed->root()->Text(), "1 < 2 & 3 > 2");
}

TEST(NodeTest, DeepEqualsDetectsDifferences) {
  auto a = Parse("<a><b x=\"1\"/></a>");
  auto b = Parse("<a><b x=\"1\"/></a>");
  auto c = Parse("<a><b x=\"2\"/></a>");
  auto d = Parse("<a><b x=\"1\"/><b x=\"1\"/></a>");
  ASSERT_TRUE(a.ok() && b.ok() && c.ok() && d.ok());
  EXPECT_TRUE(a->root()->DeepEquals(*b->root()));
  EXPECT_FALSE(a->root()->DeepEquals(*c->root()));
  EXPECT_FALSE(a->root()->DeepEquals(*d->root()));
}

}  // namespace
}  // namespace xml
}  // namespace vist
