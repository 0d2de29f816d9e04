#include "query/query_sequence.h"

#include <gtest/gtest.h>

#include "query/path_parser.h"
#include "xml/parser.h"

namespace vist {
namespace query {
namespace {

class QuerySequenceTest : public ::testing::Test {
 protected:
  // Interns the vocabulary the tests use, mimicking an index that has seen
  // documents with these names.
  void SetUp() override {
    for (const char* name : {"P", "S", "B", "I", "L", "N", "M", "a", "b",
                             "c", "d", "e"}) {
      symtab_.Intern(name);
    }
  }

  Symbol Sym(const char* name) { return symtab_.Lookup(name).value(); }
  static Symbol Val(const char* v) { return SymbolTable::ValueSymbol(v); }

  CompiledQuery MustCompile(const char* path) {
    auto compiled = CompilePath(path, symtab_);
    EXPECT_TRUE(compiled.ok()) << path << ": "
                               << compiled.status().ToString();
    return compiled.ok() ? std::move(compiled).value() : CompiledQuery{};
  }

  Sequence DataSequence(const char* xml_text) {
    auto doc = xml::Parse(xml_text);
    EXPECT_TRUE(doc.ok()) << doc.status().ToString();
    return BuildSequence(*doc->root(), &symtab_);
  }

  SymbolTable symtab_;
};

TEST_F(QuerySequenceTest, Q1SinglePath) {
  // Paper Table 2, Q1: /P/S/I/M -> (P,)(S,P)(I,PS)(M,PSI).
  CompiledQuery q = MustCompile("/P/S/I/M");
  ASSERT_EQ(q.alternatives.size(), 1u);
  const QuerySequence& seq = q.alternatives[0];
  ASSERT_EQ(seq.size(), 4u);
  EXPECT_EQ(seq[0], (QuerySequenceElement{Sym("P"), {}, -1}));
  EXPECT_EQ(seq[1], (QuerySequenceElement{Sym("S"), {Sym("P")}, 0}));
  EXPECT_EQ(seq[2], (QuerySequenceElement{Sym("I"), {Sym("P"), Sym("S")}, 1}));
  EXPECT_EQ(seq[3], (QuerySequenceElement{
                        Sym("M"), {Sym("P"), Sym("S"), Sym("I")}, 2}));
}

TEST_F(QuerySequenceTest, Q2BranchingQuery) {
  // Paper Table 2, Q2: /P[S[L=v5]]/B[L=v7] ->
  // (P,)(S,P)(L,PS)(v5,PSL)(B,P)(L,PB)(v7,PBL).
  // B sorts before S lexicographically in our normalization, so the branch
  // order differs from the paper's DTD order, but the shape is identical.
  CompiledQuery q = MustCompile("/P[S[L='v5']]/B[L='v7']");
  ASSERT_EQ(q.alternatives.size(), 1u);
  const QuerySequence& seq = q.alternatives[0];
  ASSERT_EQ(seq.size(), 7u);
  EXPECT_EQ(seq[0].symbol, Sym("P"));
  // B branch first (lexicographic normalization).
  EXPECT_EQ(seq[1].symbol, Sym("B"));
  EXPECT_EQ(seq[1].parent, 0);
  EXPECT_EQ(seq[2].symbol, Sym("L"));
  EXPECT_EQ(seq[2].parent, 1);
  EXPECT_EQ(seq[3].symbol, Val("v7"));
  EXPECT_EQ(seq[3].parent, 2);
  EXPECT_EQ(seq[4].symbol, Sym("S"));
  EXPECT_EQ(seq[4].parent, 0);
  EXPECT_EQ(seq[5].symbol, Sym("L"));
  EXPECT_EQ(seq[5].parent, 4);
  EXPECT_EQ(seq[6].symbol, Val("v5"));
  EXPECT_EQ(seq[6].parent, 5);
  EXPECT_EQ(seq[6].pattern,
            (std::vector<Symbol>{Sym("P"), Sym("S"), Sym("L")}));
}

TEST_F(QuerySequenceTest, Q3StarPlaceHolder) {
  // Paper Table 2, Q3: /P/*[L=v5] -> (P,)(L,P*)(v5,P*L).
  CompiledQuery q = MustCompile("/P/*[L='v5']");
  ASSERT_EQ(q.alternatives.size(), 1u);
  const QuerySequence& seq = q.alternatives[0];
  ASSERT_EQ(seq.size(), 3u);
  EXPECT_EQ(seq[0], (QuerySequenceElement{Sym("P"), {}, -1}));
  EXPECT_EQ(seq[1],
            (QuerySequenceElement{Sym("L"), {Sym("P"), kStarSymbol}, 0}));
  EXPECT_EQ(seq[2], (QuerySequenceElement{
                        Val("v5"), {Sym("P"), kStarSymbol, Sym("L")}, 1}));
}

TEST_F(QuerySequenceTest, Q4DescendantPlaceHolder) {
  // Paper Table 2, Q4: /P//I[M=v3] -> (P,)(I,P//)(M,P//I)(v3,P//IM).
  CompiledQuery q = MustCompile("/P//I[M='v3']");
  ASSERT_EQ(q.alternatives.size(), 1u);
  const QuerySequence& seq = q.alternatives[0];
  ASSERT_EQ(seq.size(), 4u);
  EXPECT_EQ(seq[1], (QuerySequenceElement{
                        Sym("I"), {Sym("P"), kDescendantSymbol}, 0}));
  EXPECT_EQ(seq[2].pattern,
            (std::vector<Symbol>{Sym("P"), kDescendantSymbol, Sym("I")}));
  EXPECT_EQ(seq[2].parent, 1);
  EXPECT_EQ(seq[3].parent, 2);
}

TEST_F(QuerySequenceTest, Q5SameNameBranchesExpand) {
  // Paper §2: Q5 = /a[b/c]/b/d converts to two sequences (both orders of
  // the two b branches).
  CompiledQuery q = MustCompile("/a[b/c]/b/d");
  ASSERT_EQ(q.alternatives.size(), 2u);
  for (const QuerySequence& seq : q.alternatives) {
    ASSERT_EQ(seq.size(), 5u);
    EXPECT_EQ(seq[0].symbol, Sym("a"));
    EXPECT_EQ(seq[1].symbol, Sym("b"));
    EXPECT_EQ(seq[3].symbol, Sym("b"));
  }
  // One alternative has c first, the other d first.
  const Symbol c = Sym("c");
  const Symbol d = Sym("d");
  EXPECT_NE(q.alternatives[0][2].symbol, q.alternatives[1][2].symbol);
  EXPECT_TRUE((q.alternatives[0][2].symbol == c &&
               q.alternatives[1][2].symbol == d) ||
              (q.alternatives[0][2].symbol == d &&
               q.alternatives[1][2].symbol == c));
}

TEST_F(QuerySequenceTest, IdenticalBranchesDedupe) {
  // /a[b/c]/b/c: both orders produce the same sequence.
  CompiledQuery q = MustCompile("/a[b/c]/b/c");
  EXPECT_EQ(q.alternatives.size(), 1u);
}

TEST_F(QuerySequenceTest, WildcardSiblingFloats) {
  // /a[b][*[c]] : the '*' subtree can precede or follow b.
  CompiledQuery q = MustCompile("/a[b][*[c]]");
  EXPECT_EQ(q.alternatives.size(), 2u);
}

TEST_F(QuerySequenceTest, UnknownNameMeansProvablyEmpty) {
  CompiledQuery q = MustCompile("/P/never_seen_element");
  EXPECT_TRUE(q.alternatives.empty());
}

TEST_F(QuerySequenceTest, UngroundedWildcardRejected) {
  auto q = CompilePath("/P/*", symtab_);
  EXPECT_FALSE(q.ok());
  EXPECT_TRUE(q.status().IsNotSupported());
}

TEST_F(QuerySequenceTest, PermutationExplosionCapped) {
  // Five same-named branches with distinct leaves: 5! = 120 orders, more
  // than kMaxAlternatives.
  static_assert(kMaxAlternatives < 120);
  auto q = CompilePath("/a[b/c][b/d][b/e][b/L][b/M]", symtab_);
  EXPECT_FALSE(q.ok());
  EXPECT_TRUE(q.status().IsNotSupported());
}

// --- Matching oracle ------------------------------------------------------

TEST_F(QuerySequenceTest, MatchSimplePath) {
  Sequence data = DataSequence("<P><S><I><M>x</M></I></S></P>");
  EXPECT_TRUE(MatchesAny(MustCompile("/P/S/I/M"), data));
  EXPECT_TRUE(MatchesAny(MustCompile("/P/S"), data));
  EXPECT_FALSE(MatchesAny(MustCompile("/P/B"), data));
  EXPECT_FALSE(MatchesAny(MustCompile("/S"), data));  // S is not the root
}

TEST_F(QuerySequenceTest, MatchValuePredicate) {
  Sequence data = DataSequence("<P><S><L>boston</L></S></P>");
  symtab_.Intern("boston");  // names irrelevant; value symbols are hashes
  EXPECT_TRUE(MatchesAny(MustCompile("/P/S/L[text()='boston']"), data));
  EXPECT_FALSE(MatchesAny(MustCompile("/P/S/L[text()='newyork']"), data));
}

TEST_F(QuerySequenceTest, MatchBranchingQuery) {
  Sequence data = DataSequence(
      "<P><S><L>boston</L></S><B><L>newyork</L></B></P>");
  EXPECT_TRUE(MatchesAny(
      MustCompile("/P[S[L='boston']]/B[L='newyork']"), data));
  EXPECT_FALSE(MatchesAny(
      MustCompile("/P[S[L='newyork']]/B[L='boston']"), data));
}

TEST_F(QuerySequenceTest, MatchStarInstantiation) {
  // Q3 semantics: '*' binds to the matched node; the value must be under
  // the same branch.
  Sequence data = DataSequence(
      "<P><S><L>boston</L></S><B><L>newyork</L></B></P>");
  EXPECT_TRUE(MatchesAny(MustCompile("/P/*[L='boston']"), data));
  EXPECT_TRUE(MatchesAny(MustCompile("/P/*[L='newyork']"), data));
  EXPECT_FALSE(MatchesAny(MustCompile("/P/*[L='chicago']"), data));
}

TEST_F(QuerySequenceTest, MatchDescendantAtAnyDepth) {
  Sequence data = DataSequence("<P><S><I><I><M>intel</M></I></I></S></P>");
  EXPECT_TRUE(MatchesAny(MustCompile("/P//I[M='intel']"), data));
  EXPECT_TRUE(MatchesAny(MustCompile("/P//M"), data));
  EXPECT_TRUE(MatchesAny(MustCompile("//M[text()='intel']"), data));
  EXPECT_FALSE(MatchesAny(MustCompile("/P//B"), data));
}

TEST_F(QuerySequenceTest, StarRequiresExactlyOneLevel) {
  Sequence data = DataSequence("<a><b><c/></b></a>");
  EXPECT_TRUE(MatchesAny(MustCompile("/a/*/c"), data));
  EXPECT_FALSE(MatchesAny(MustCompile("/a/*/*/c"), data));
  Sequence deep = DataSequence("<a><b><b><c/></b></b></a>");
  EXPECT_TRUE(MatchesAny(MustCompile("/a/*/*/c"), deep));
}

TEST_F(QuerySequenceTest, BacktrackingFindsLaterBinding) {
  // The first S lacks the value; the matcher must not get stuck on it.
  Sequence data = DataSequence(
      "<P><S><L>chicago</L></S><S><L>boston</L></S></P>");
  EXPECT_TRUE(MatchesAny(MustCompile("/P/S[L='boston']"), data));
}

TEST_F(QuerySequenceTest, KnownFalsePositiveOfSequenceMatching) {
  // The documented ViST limitation: both branch conditions hold, but under
  // *different* instances of the same-named ancestor. Sequence matching
  // (and hence the paper's index) reports a match; a tree-embedding
  // verifier would reject it. This test pins the faithful behaviour.
  Sequence data = DataSequence(
      "<P>"
      "<S><L>boston</L></S>"
      "<S><N>dell</N></S>"
      "</P>");
  EXPECT_TRUE(MatchesAny(
      MustCompile("/P/S[L='boston'][N='dell']"), data));
}

}  // namespace
}  // namespace query
}  // namespace vist
