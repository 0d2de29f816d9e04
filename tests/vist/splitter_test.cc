#include "vist/splitter.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "vist/vist_index.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace vist {
namespace {

std::vector<xml::Document> Split(const char* xml_text,
                                 const std::set<std::string>& names) {
  auto doc = xml::Parse(xml_text);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  return SplitDocument(*doc->root(), names);
}

TEST(SplitterTest, ExtractsEachOccurrenceWithAncestors) {
  auto records = Split(
      "<site><regions><europe><item id=\"1\"/></europe>"
      "<asia><item id=\"2\"/></asia></regions></site>",
      {"item"});
  ASSERT_EQ(records.size(), 2u);
  // Each record keeps the site/regions/<region> chain.
  EXPECT_EQ(records[0].root()->name(), "site");
  xml::Node* regions = records[0].root()->FindChildElement("regions");
  ASSERT_NE(regions, nullptr);
  xml::Node* europe = regions->FindChildElement("europe");
  ASSERT_NE(europe, nullptr);
  xml::Node* item = europe->FindChildElement("item");
  ASSERT_NE(item, nullptr);
  EXPECT_EQ(item->Attribute("id"), "1");
  // Second record took the asia branch.
  EXPECT_NE(records[1].root()->FindChildElement("regions")
                ->FindChildElement("asia"),
            nullptr);
}

TEST(SplitterTest, ResidualKeepsNonSplitContent) {
  auto records = Split(
      "<site><title>Auctions</title><people><person id=\"p\"/></people>"
      "</site>",
      {"person"});
  ASSERT_EQ(records.size(), 2u);
  // Residual (last) keeps the title but not the person.
  const xml::Document& residual = records.back();
  EXPECT_NE(residual.root()->FindChildElement("title"), nullptr);
  EXPECT_EQ(residual.root()
                ->FindChildElement("people")
                ->FindChildElement("person"),
            nullptr);
}

TEST(SplitterTest, NoSplitPointsYieldsWholeDocument) {
  auto records = Split("<a><b/><c>x</c></a>", {"zzz"});
  ASSERT_EQ(records.size(), 1u);
  auto original = xml::Parse("<a><b/><c>x</c></a>");
  EXPECT_TRUE(records[0].root()->DeepEquals(*original->root()));
}

TEST(SplitterTest, RootItselfCanBeSplitElement) {
  auto records = Split("<item><name>n</name></item>", {"item"});
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].root()->name(), "item");
}

TEST(SplitterTest, NestedSplitElementsStayWithOuterRecord) {
  // An item inside an item: the outer occurrence is one record; the inner
  // one travels with it (it is part of that substructure).
  auto records = Split("<r><item id=\"o\"><item id=\"i\"/></item></r>",
                       {"item"});
  ASSERT_EQ(records.size(), 1u);
  xml::Node* outer = records[0].root()->FindChildElement("item");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->Attribute("id"), "o");
  EXPECT_NE(outer->FindChildElement("item"), nullptr);
}

TEST(SplitterTest, WrapperChainCarriesNoAncestorAttributes) {
  // The split record's wrapper chain carries no ancestor attributes. (The
  // residual keeps the attribute: it is payload.)
  auto records = Split("<site id=\"s1\"><item/></site>", {"item"});
  ASSERT_EQ(records.size(), 2u);
  EXPECT_TRUE(std::string(records[0].root()->Attribute("id")).empty());

  // Without the attribute there is no payload: the residual disappears.
  auto bare = Split("<site><item/></site>", {"item"});
  EXPECT_EQ(bare.size(), 1u);
}

TEST(SplitterTest, SplitRecordsIndexAndAnswerAbsoluteQueries) {
  // End-to-end: one big document split and indexed; /site//item queries
  // still anchor at site.
  const char* big =
      "<site><regions>"
      "<europe><item><location>US</location></item>"
      "<item><location>DE</location></item></europe>"
      "</regions></site>";
  auto doc = xml::Parse(big);
  ASSERT_TRUE(doc.ok());
  std::vector<xml::Document> records = SplitDocument(*doc->root(), {"item"});
  ASSERT_EQ(records.size(), 2u);  // two items; residual has no content

  const auto dir = std::filesystem::temp_directory_path() /
                   ("vist_splitter_e2e_" + std::to_string(getpid()));
  std::filesystem::remove_all(dir);
  auto index = VistIndex::Create(dir.string(), VistOptions());
  ASSERT_TRUE(index.ok());
  for (size_t i = 0; i < records.size(); ++i) {
    ASSERT_TRUE(
        (*index)->InsertDocument(*records[i].root(), i + 1).ok());
  }
  auto us = (*index)->Query("/site//item[location='US']");
  ASSERT_TRUE(us.ok());
  EXPECT_EQ(*us, (std::vector<uint64_t>{1}));
  auto any = (*index)->Query("/site/regions/europe/item");
  ASSERT_TRUE(any.ok());
  EXPECT_EQ(*any, (std::vector<uint64_t>{1, 2}));
  index->reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace vist
