#include "seq/sequence.h"

#include <gtest/gtest.h>

#include "xml/parser.h"

namespace vist {
namespace {

// Builds the single purchase record of the paper's Figure 3.
xml::Document PaperPurchaseRecord() {
  xml::Document doc = xml::Document::WithRoot("P");
  xml::Node* s = doc.root()->AddElement("S");
  s->AddAttribute("N", "dell");
  xml::Node* i1 = s->AddElement("I");
  i1->AddAttribute("M", "ibm");
  i1->AddAttribute("N", "part#1");
  xml::Node* i2 = i1->AddElement("I");
  i2->AddAttribute("M", "part#2");
  xml::Node* i3 = s->AddElement("I");
  i3->AddAttribute("N", "panasia");
  s->AddAttribute("L", "boston");
  xml::Node* b = doc.root()->AddElement("B");
  b->AddAttribute("L", "newyork");
  b->AddAttribute("N", "intel");
  return doc;
}

TEST(SequenceTest, PaperFigure4Shape) {
  // The paper's D (Figure 4) modulo sibling normalization: our normalizer
  // sorts siblings lexicographically, so under S the order is I,I,L,N
  // instead of the DTD order N,I,I,L. Shape properties must still hold.
  xml::Document doc = PaperPurchaseRecord();
  SymbolTable symtab;
  Sequence seq = BuildSequence(*doc.root(), &symtab);

  // 14 structural nodes + 8 values = 22 elements, matching the paper's D.
  ASSERT_EQ(seq.size(), 22u);
  // First element is the root with empty prefix.
  EXPECT_EQ(seq[0].symbol, symtab.Lookup("P").value());
  EXPECT_TRUE(seq[0].prefix.empty());
  // Every element's prefix is root-anchored and one longer than its
  // parent's.
  for (const SequenceElement& e : seq) {
    if (!e.prefix.empty()) {
      EXPECT_EQ(e.prefix[0], symtab.Lookup("P").value());
    }
  }
}

TEST(SequenceTest, PrefixIsPathFromRoot) {
  auto doc = xml::Parse("<a><b><c/></b></a>");
  ASSERT_TRUE(doc.ok());
  SymbolTable symtab;
  Sequence seq = BuildSequence(*doc->root(), &symtab);
  Symbol a = symtab.Lookup("a").value();
  Symbol b = symtab.Lookup("b").value();
  Symbol c = symtab.Lookup("c").value();
  ASSERT_EQ(seq.size(), 3u);
  EXPECT_EQ(seq[0], (SequenceElement{a, {}}));
  EXPECT_EQ(seq[1], (SequenceElement{b, {a}}));
  EXPECT_EQ(seq[2], (SequenceElement{c, {a, b}}));
}

TEST(SequenceTest, SiblingsNormalizedLexicographically) {
  // Isomorphic documents yield identical sequences (§2's motivation).
  auto doc1 = xml::Parse("<r><b/><a/><c/></r>");
  auto doc2 = xml::Parse("<r><c/><a/><b/></r>");
  ASSERT_TRUE(doc1.ok() && doc2.ok());
  SymbolTable symtab;
  Sequence s1 = BuildSequence(*doc1->root(), &symtab);
  Sequence s2 = BuildSequence(*doc2->root(), &symtab);
  EXPECT_EQ(s1, s2);
  // And the order is a, b, c.
  ASSERT_EQ(s1.size(), 4u);
  EXPECT_EQ(s1[1].symbol, symtab.Lookup("a").value());
  EXPECT_EQ(s1[2].symbol, symtab.Lookup("b").value());
  EXPECT_EQ(s1[3].symbol, symtab.Lookup("c").value());
}

TEST(SequenceTest, RepeatedSiblingsKeepDocumentOrder) {
  auto doc = xml::Parse("<r><i x=\"1\"/><i x=\"2\"/></r>");
  ASSERT_TRUE(doc.ok());
  SymbolTable symtab;
  Sequence seq = BuildSequence(*doc->root(), &symtab);
  // r, i, x, v1, i, x, v2
  ASSERT_EQ(seq.size(), 7u);
  EXPECT_EQ(seq[3].symbol, SymbolTable::ValueSymbol("1"));
  EXPECT_EQ(seq[6].symbol, SymbolTable::ValueSymbol("2"));
}

TEST(SequenceTest, AttributeValuesBecomeValueSymbols) {
  auto doc = xml::Parse("<a n=\"dell\"/>");
  ASSERT_TRUE(doc.ok());
  SymbolTable symtab;
  Sequence seq = BuildSequence(*doc->root(), &symtab);
  Symbol a = symtab.Lookup("a").value();
  Symbol n = symtab.Lookup("n").value();
  ASSERT_EQ(seq.size(), 3u);
  EXPECT_EQ(seq[1], (SequenceElement{n, {a}}));
  EXPECT_EQ(seq[2],
            (SequenceElement{SymbolTable::ValueSymbol("dell"), {a, n}}));
}

TEST(SequenceTest, TextBecomesValueSymbolBeforeChildren) {
  auto doc = xml::Parse("<a>hello<b/></a>");
  ASSERT_TRUE(doc.ok());
  SymbolTable symtab;
  Sequence seq = BuildSequence(*doc->root(), &symtab);
  ASSERT_EQ(seq.size(), 3u);
  EXPECT_EQ(seq[1].symbol, SymbolTable::ValueSymbol("hello"));
  EXPECT_EQ(seq[2].symbol, symtab.Lookup("b").value());
}

TEST(PrefixPatternTest, ConcretePatternsNeedExactMatch) {
  std::vector<Symbol> p = {1, 2, 3};
  EXPECT_TRUE(PrefixPatternMatches(p, {1, 2, 3}));
  EXPECT_FALSE(PrefixPatternMatches(p, {1, 2}));
  EXPECT_FALSE(PrefixPatternMatches(p, {1, 2, 4}));
  EXPECT_FALSE(PrefixPatternMatches(p, {1, 2, 3, 4}));
  EXPECT_TRUE(PrefixPatternMatches({}, {}));
  EXPECT_FALSE(PrefixPatternMatches({}, {1}));
}

TEST(PrefixPatternTest, StarMatchesExactlyOneSymbol) {
  std::vector<Symbol> p = {1, kStarSymbol, 3};
  EXPECT_TRUE(PrefixPatternMatches(p, {1, 2, 3}));
  EXPECT_TRUE(PrefixPatternMatches(p, {1, 9, 3}));
  EXPECT_FALSE(PrefixPatternMatches(p, {1, 3}));
  EXPECT_FALSE(PrefixPatternMatches(p, {1, 2, 2, 3}));
  EXPECT_TRUE(PrefixPatternMatches({kStarSymbol}, {7}));
  EXPECT_FALSE(PrefixPatternMatches({kStarSymbol}, {}));
}

TEST(PrefixPatternTest, DescendantMatchesAnyRun) {
  std::vector<Symbol> p = {1, kDescendantSymbol, 4};
  EXPECT_TRUE(PrefixPatternMatches(p, {1, 4}));
  EXPECT_TRUE(PrefixPatternMatches(p, {1, 2, 4}));
  EXPECT_TRUE(PrefixPatternMatches(p, {1, 2, 3, 4}));
  EXPECT_FALSE(PrefixPatternMatches(p, {1, 2, 3}));
  EXPECT_FALSE(PrefixPatternMatches(p, {2, 4}));
  EXPECT_TRUE(PrefixPatternMatches({kDescendantSymbol}, {}));
  EXPECT_TRUE(PrefixPatternMatches({kDescendantSymbol}, {1, 2, 3}));
}

TEST(PrefixPatternTest, CombinedWildcards) {
  // //x//* : at least an x somewhere followed by at least one symbol.
  std::vector<Symbol> p = {kDescendantSymbol, 5, kDescendantSymbol,
                           kStarSymbol};
  EXPECT_TRUE(PrefixPatternMatches(p, {5, 9}));
  EXPECT_TRUE(PrefixPatternMatches(p, {1, 5, 2, 3}));
  EXPECT_FALSE(PrefixPatternMatches(p, {5}));
  EXPECT_FALSE(PrefixPatternMatches(p, {1, 2}));
  // Backtracking case: pattern //a b must match the *last* "a b".
  std::vector<Symbol> q = {kDescendantSymbol, 1, 2};
  EXPECT_TRUE(PrefixPatternMatches(q, {1, 3, 1, 2}));
  EXPECT_FALSE(PrefixPatternMatches(q, {1, 2, 1}));
}

TEST(SequenceTest, ToStringRendersReadably) {
  auto doc = xml::Parse("<S><L>boston</L></S>");
  ASSERT_TRUE(doc.ok());
  SymbolTable symtab;
  Sequence seq = BuildSequence(*doc->root(), &symtab);
  std::string s = SequenceToString(seq, symtab);
  EXPECT_NE(s.find("(S,)"), std::string::npos);
  EXPECT_NE(s.find("(L,S)"), std::string::npos);
  EXPECT_NE(s.find(",SL)"), std::string::npos);
}

}  // namespace
}  // namespace vist
