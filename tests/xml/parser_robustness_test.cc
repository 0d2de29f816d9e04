// Robustness: the parser must reject (never crash on) adversarial input —
// deep nesting, truncations, and random mutations of valid documents.

#include <gtest/gtest.h>

#include "common/random.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace vist {
namespace xml {
namespace {

TEST(ParserRobustnessTest, DepthLimitEnforced) {
  std::string open, close;
  for (int i = 0; i < 600; ++i) {
    open += "<d>";
    close += "</d>";
  }
  auto doc = Parse(open + close);
  ASSERT_FALSE(doc.ok());
  EXPECT_TRUE(doc.status().IsParseError());
  EXPECT_NE(doc.status().message().find("max_depth"), std::string::npos);
}

TEST(ParserRobustnessTest, DepthJustUnderLimitAccepted) {
  std::string open, close;
  for (int i = 0; i < 511; ++i) {
    open += "<d>";
    close += "</d>";
  }
  auto doc = Parse(open + close);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
}

TEST(ParserRobustnessTest, EveryTruncationHandledGracefully) {
  const std::string valid =
      "<?xml version=\"1.0\"?><a x=\"1\"><!-- c --><b>text &amp; "
      "more</b><![CDATA[raw]]><c/></a>";
  for (size_t len = 0; len < valid.size(); ++len) {
    auto doc = Parse(valid.substr(0, len));
    // Any prefix is either still parseable (never, for this input, except
    // by accident) or a clean ParseError — what matters is no crash and a
    // sane Status.
    if (!doc.ok()) {
      EXPECT_TRUE(doc.status().IsParseError()) << "len=" << len;
    }
  }
}

TEST(ParserRobustnessTest, RandomMutationsNeverCrash) {
  const std::string valid =
      "<purchase><seller name=\"dell\" location=\"boston\">"
      "<item manufacturer=\"ibm\">part &lt;1&gt;</item></seller>"
      "<buyer location=\"newyork\"/></purchase>";
  Random rng(2024);
  int parsed_ok = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::string mutated = valid;
    const int mutations = 1 + static_cast<int>(rng.Uniform(4));
    for (int m = 0; m < mutations; ++m) {
      const size_t pos = rng.Uniform(mutated.size());
      switch (rng.Uniform(3)) {
        case 0:
          mutated[pos] = static_cast<char>(rng.Uniform(256));
          break;
        case 1:
          mutated.erase(pos, 1);
          break;
        default:
          mutated.insert(pos, 1, static_cast<char>(rng.Uniform(256)));
      }
    }
    auto doc = Parse(mutated);
    if (doc.ok()) {
      ++parsed_ok;
      // Whatever parsed must serialize and re-parse consistently.
      auto round = Parse(Write(*doc));
      ASSERT_TRUE(round.ok());
      EXPECT_TRUE(doc->root()->DeepEquals(*round->root()));
    }
  }
  // Sanity: some mutations (e.g. inside text) should still parse.
  EXPECT_GT(parsed_ok, 0);
}

TEST(ParserRobustnessTest, HugeFlatDocumentParses) {
  // Breadth is fine (no recursion): 50k siblings.
  std::string text = "<r>";
  for (int i = 0; i < 50000; ++i) text += "<x/>";
  text += "</r>";
  auto doc = Parse(text);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->root()->num_children(), 50000u);
}

}  // namespace
}  // namespace xml
}  // namespace vist
