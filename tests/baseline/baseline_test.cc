#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <map>

#include "baseline/node_index.h"
#include "baseline/path_index.h"
#include "common/random.h"
#include "query/path_parser.h"
#include "vist/verifier.h"
#include "vist/vist_index.h"
#include "xml/parser.h"

namespace vist {
namespace {

class BaselineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("vist_baseline_" + std::to_string(getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    auto paths = PathIndex::Create((dir_ / "paths").string(), &symtab_);
    ASSERT_TRUE(paths.ok()) << paths.status().ToString();
    path_index_ = std::move(paths).value();
    auto nodes = NodeIndex::Create((dir_ / "nodes").string(), &symtab_);
    ASSERT_TRUE(nodes.ok()) << nodes.status().ToString();
    node_index_ = std::move(nodes).value();
  }
  void TearDown() override {
    path_index_.reset();
    node_index_.reset();
    std::filesystem::remove_all(dir_);
  }

  void Insert(uint64_t id, const char* xml_text) {
    auto doc = xml::Parse(xml_text);
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    Sequence seq = BuildSequence(*doc->root(), &symtab_);
    ASSERT_TRUE(path_index_->InsertSequence(seq, id).ok());
    ASSERT_TRUE(node_index_->InsertDocument(*doc->root(), id).ok());
    docs_[id] = xml_text;
  }

  // Runs `path`; `joins`, when given, receives the joins the query's
  // profile counted.
  std::vector<uint64_t> Run(QueryableIndex* index, const char* path,
                            uint64_t* joins) {
    obs::QueryProfile profile;
    QueryOptions options;
    options.profile = &profile;
    auto ids = index->Query(path, options);
    EXPECT_TRUE(ids.ok()) << path << ": " << ids.status().ToString();
    if (joins != nullptr) *joins = profile.joins;
    return ids.ok() ? std::move(ids).value() : std::vector<uint64_t>{};
  }
  std::vector<uint64_t> RunPath(const char* path, uint64_t* joins = nullptr) {
    return Run(path_index_.get(), path, joins);
  }
  std::vector<uint64_t> RunNode(const char* path, uint64_t* joins = nullptr) {
    return Run(node_index_.get(), path, joins);
  }

  // Ground truth with exact XPath semantics: the verifier over raw docs.
  std::vector<uint64_t> Truth(const char* path) {
    auto expr = query::ParsePath(path);
    EXPECT_TRUE(expr.ok());
    auto tree = query::BuildQueryTree(*expr);
    EXPECT_TRUE(tree.ok());
    std::vector<uint64_t> out;
    for (const auto& [id, text] : docs_) {
      auto doc = xml::Parse(text);
      EXPECT_TRUE(doc.ok());
      if (VerifyEmbedding(*tree, *doc->root())) out.push_back(id);
    }
    return out;
  }

  std::filesystem::path dir_;
  SymbolTable symtab_;
  std::unique_ptr<PathIndex> path_index_;
  std::unique_ptr<NodeIndex> node_index_;
  std::map<uint64_t, std::string> docs_;
};

TEST_F(BaselineTest, PaperQueriesBothBaselines) {
  Insert(1,
         "<P><S><N>dell</N><I><M>ibm</M></I><L>boston</L></S>"
         "<B><L>newyork</L></B></P>");
  Insert(2,
         "<P><S><N>hp</N><I><M>intel</M></I><L>chicago</L></S>"
         "<B><L>boston</L></B></P>");
  Insert(3,
         "<P><S><N>acme</N><I><I><M>intel</M></I></I><L>boston</L></S>"
         "<B><L>seattle</L></B></P>");
  for (const char* q :
       {"/P/S/I/M", "/P[S[L='boston']]/B[L='newyork']", "/P/*[L='boston']",
        "/P//I[M='intel']", "/P/S/I[M='amd']"}) {
    EXPECT_EQ(RunNode(q), Truth(q)) << q;
    // Path-index semantics are laxer (docid joins) but never miss a true
    // match.
    std::vector<uint64_t> pi = RunPath(q);
    std::vector<uint64_t> truth = Truth(q);
    EXPECT_TRUE(std::includes(pi.begin(), pi.end(), truth.begin(),
                              truth.end()))
        << q;
  }
  // For these specific documents the path index is exact too.
  EXPECT_EQ(RunPath("/P/S/I/M"), Truth("/P/S/I/M"));
  EXPECT_EQ(RunPath("/P//I[M='intel']"), Truth("/P//I[M='intel']"));
}

TEST_F(BaselineTest, PathIndexCountsJoins) {
  Insert(1, "<P><S><L>boston</L></S><B><L>newyork</L></B></P>");
  uint64_t joins = 99;
  RunPath("/P/S/L", &joins);
  EXPECT_EQ(joins, 0u);  // single path
  RunPath("/P[S[L='boston']]/B[L='newyork']", &joins);
  EXPECT_GE(joins, 1u);  // branch => join
}

TEST_F(BaselineTest, NodeIndexCountsJoins) {
  Insert(1, "<P><S><L>boston</L></S></P>");
  uint64_t joins = 99;
  RunNode("/P", &joins);
  EXPECT_EQ(joins, 0u);
  RunNode("/P/S/L[text()='boston']", &joins);
  EXPECT_GE(joins, 3u);
}

TEST_F(BaselineTest, NodeIndexRejectsFalsePositiveBranches) {
  // The case sequence matching gets wrong; region joins must not.
  Insert(1, "<P><S><L>boston</L><N>dell</N></S></P>");
  Insert(2, "<P><S><L>boston</L></S><S><N>dell</N></S></P>");
  EXPECT_EQ(RunNode("/P/S[L='boston'][N='dell']"),
            (std::vector<uint64_t>{1}));
}

TEST_F(BaselineTest, AbsolutePathAnchorsAtRoot) {
  Insert(1, "<a><b><a><c/></a></b></a>");
  // /a/c must not match the nested a.
  EXPECT_TRUE(RunNode("/a/c").empty());
  EXPECT_EQ(RunNode("//a/c"), (std::vector<uint64_t>{1}));
  EXPECT_TRUE(RunPath("/a/c").empty());
  EXPECT_EQ(RunPath("//a/c"), (std::vector<uint64_t>{1}));
}

TEST_F(BaselineTest, UnknownNamesReturnEmpty) {
  Insert(1, "<a><b/></a>");
  EXPECT_TRUE(RunNode("/a/zzz").empty());
  EXPECT_TRUE(RunPath("/a/zzz").empty());
}

TEST_F(BaselineTest, RefinedPathAnswersWithoutJoins) {
  // Register before inserting (Index Fabric semantics).
  // Vocabulary must exist before compilation: intern it first.
  for (const char* name : {"P", "S", "B", "L"}) symtab_.Intern(name);
  ASSERT_TRUE(path_index_
                  ->AddRefinedPath(
                      "/P[S[L='boston']]/B[L='newyork']")
                  .ok());
  Insert(1, "<P><S><L>boston</L></S><B><L>newyork</L></B></P>");
  Insert(2, "<P><S><L>boston</L></S><B><L>seattle</L></B></P>");
  Insert(3, "<P><S><L>chicago</L></S><B><L>newyork</L></B></P>");

  uint64_t joins = 99;
  auto refined = RunPath("/P[S[L='boston']]/B[L='newyork']", &joins);
  EXPECT_EQ(refined, (std::vector<uint64_t>{1}));
  EXPECT_EQ(joins, 0u);  // join-free

  // The same query through the generic path (different string) pays joins
  // and — on this data — happens to agree.
  auto generic = RunPath("/P[S[L='boston']][B[L='newyork']]", &joins);
  EXPECT_EQ(generic, (std::vector<uint64_t>{1}));
  EXPECT_GE(joins, 1u);

  // Maintenance cost: one pattern evaluation per insert per refined path.
  EXPECT_EQ(path_index_->refined_maintenance_checks(), 3u);
}

TEST_F(BaselineTest, RefinedPathIsExactNotLaxJoin) {
  for (const char* name : {"P", "S", "L", "N"}) symtab_.Intern(name);
  ASSERT_TRUE(path_index_->AddRefinedPath("/P/S[L='boston'][N='dell']").ok());
  // Branch split across two sellers: the docid-join evaluation accepts it,
  // the refined posting (sequence-matching semantics) also accepts it —
  // both documented over-approximations, but the refined one is tighter.
  Insert(1, "<P><S><L>boston</L><N>dell</N></S></P>");
  Insert(2, "<P><S><L>boston</L></S><S><N>ibm</N></S></P>");
  auto refined = RunPath("/P/S[L='boston'][N='dell']");
  EXPECT_EQ(refined, (std::vector<uint64_t>{1}));
}

// Randomized agreement: the node index must equal exact XPath semantics on
// arbitrary corpora; the path index must over-approximate them.
class BaselineOracleTest : public ::testing::TestWithParam<uint64_t> {};

std::string RandomXml(Random* rng, int max_depth) {
  static const char* kNames[] = {"a", "b", "c", "d"};
  static const char* kValues[] = {"x", "y", "z"};
  std::function<std::string(int)> gen = [&](int depth) {
    std::string name = kNames[rng->Uniform(4)];
    std::string out = "<" + name;
    if (rng->Bernoulli(0.3)) {
      out += " at='" + std::string(kValues[rng->Uniform(3)]) + "'";
    }
    out += ">";
    if (rng->Bernoulli(0.3)) out += kValues[rng->Uniform(3)];
    if (depth < max_depth) {
      const int kids = static_cast<int>(rng->Uniform(3));
      for (int i = 0; i < kids; ++i) out += gen(depth + 1);
    }
    out += "</" + name + ">";
    return out;
  };
  return gen(0);
}

TEST_P(BaselineOracleTest, NodeIndexMatchesExactSemantics) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("vist_baseline_oracle_" + std::to_string(getpid()) + "_" +
                    std::to_string(GetParam()));
  std::filesystem::remove_all(dir);
  SymbolTable symtab;
  auto nodes = NodeIndex::Create((dir / "nodes").string(), &symtab);
  auto paths = PathIndex::Create((dir / "paths").string(), &symtab);
  ASSERT_TRUE(nodes.ok() && paths.ok());

  Random rng(GetParam());
  std::map<uint64_t, std::string> corpus;
  for (uint64_t id = 1; id <= 50; ++id) {
    corpus[id] = RandomXml(&rng, 3);
    auto doc = xml::Parse(corpus[id]);
    ASSERT_TRUE(doc.ok());
    ASSERT_TRUE((*nodes)->InsertDocument(*doc->root(), id).ok());
    Sequence seq = BuildSequence(*doc->root(), &symtab);
    ASSERT_TRUE((*paths)->InsertSequence(seq, id).ok());
  }

  const char* kQueries[] = {
      "/a",        "/a/b",           "/a[b][c]",      "/a[at='x']",
      "//b[at='y']", "/a//c",        "/a/*[at='z']",  "//c[text()='x']",
      "/a[b/c]/b", "//b//c",         "/c[.//d='y']",
  };
  for (const char* q : kQueries) {
    auto expr = query::ParsePath(q);
    ASSERT_TRUE(expr.ok());
    auto tree = query::BuildQueryTree(*expr);
    ASSERT_TRUE(tree.ok());
    std::vector<uint64_t> truth;
    for (const auto& [id, text] : corpus) {
      auto doc = xml::Parse(text);
      if (VerifyEmbedding(*tree, *doc->root())) truth.push_back(id);
    }
    auto node_ids = (*nodes)->Query(q);
    ASSERT_TRUE(node_ids.ok()) << q;
    EXPECT_EQ(*node_ids, truth) << "NodeIndex, " << q;
    auto path_ids = (*paths)->Query(q);
    ASSERT_TRUE(path_ids.ok()) << q;
    EXPECT_TRUE(std::includes(path_ids->begin(), path_ids->end(),
                              truth.begin(), truth.end()))
        << "PathIndex misses matches, " << q;
  }
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BaselineOracleTest,
                         ::testing::Values(7, 17, 27, 37));

}  // namespace
}  // namespace vist
