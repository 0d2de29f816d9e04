// exec::ExtractPlanFeatures unit tests: golden feature vectors for the
// EXPERIMENTS.md E1 query set (Q1-Q8) — the exact shapes the router's
// cost model keys on — plus malformed/empty-path edges and the
// selectivity estimator against hand-built corpus statistics. Then what
// exec::Router decides from them: its cold-bucket round-robin, its
// failover, the rank of an engine that cannot compile a bucket's queries,
// and the refusal of shapes no engine lowers, read from the
// router.picks.* and router.failovers counters.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "baseline/node_index.h"
#include "baseline/path_index.h"
#include "exec/plan_features.h"
#include "exec/router.h"
#include "obs/metrics.h"
#include "vist/vist_index.h"
#include "xml/parser.h"

namespace vist {
namespace exec {
namespace {

PlanFeatures MustExtract(const std::string& path) {
  auto features = ExtractPlanFeatures(path);
  EXPECT_TRUE(features.ok()) << path << ": " << features.status().ToString();
  return std::move(features).value();
}

TEST(PlanFeaturesTest, Q1PlainPath) {
  PlanFeatures f = MustExtract("/inproceedings/title");
  EXPECT_FALSE(f.has_wildcard);
  EXPECT_FALSE(f.has_descendant);
  EXPECT_EQ(f.branch_predicates, 0u);
  EXPECT_FALSE(f.has_value);
  EXPECT_EQ(f.names, (std::vector<std::string>{"inproceedings", "title"}));
}

TEST(PlanFeaturesTest, Q2ValuePredicate) {
  PlanFeatures f = MustExtract("/book/author[text()='David']");
  EXPECT_FALSE(f.has_wildcard);
  EXPECT_FALSE(f.has_descendant);
  EXPECT_EQ(f.branch_predicates, 0u);  // '[text()=v]' tests the step itself
  EXPECT_TRUE(f.has_value);
  EXPECT_EQ(f.names, (std::vector<std::string>{"book", "author"}));
}

TEST(PlanFeaturesTest, Q3WildcardNoDescendant) {
  PlanFeatures f = MustExtract("/*/author[text()='David']");
  EXPECT_TRUE(f.has_wildcard);
  EXPECT_FALSE(f.has_descendant);
  EXPECT_TRUE(f.has_value);
  EXPECT_EQ(f.names, (std::vector<std::string>{"author"}));
}

TEST(PlanFeaturesTest, Q4DescendantNoWildcard) {
  PlanFeatures f = MustExtract("//author[text()='David']");
  EXPECT_FALSE(f.has_wildcard);
  EXPECT_TRUE(f.has_descendant);
  EXPECT_TRUE(f.has_value);
  EXPECT_EQ(f.names, (std::vector<std::string>{"author"}));
}

TEST(PlanFeaturesTest, Q5BranchPredicate) {
  PlanFeatures f = MustExtract("/book[key='books/bc/MaierW88']/author");
  EXPECT_FALSE(f.has_wildcard);
  EXPECT_FALSE(f.has_descendant);
  EXPECT_EQ(f.branch_predicates, 1u);
  EXPECT_TRUE(f.has_value);  // the same predicate carries both
  EXPECT_EQ(f.names, (std::vector<std::string>{"book", "key", "author"}));
}

TEST(PlanFeaturesTest, Q6DeepDescendantWithBranch) {
  PlanFeatures f = MustExtract(
      "/site//item[location='US']/mailbox/mail/date[text()='12/15/1999']");
  EXPECT_FALSE(f.has_wildcard);
  EXPECT_TRUE(f.has_descendant);
  EXPECT_EQ(f.branch_predicates, 1u);
  EXPECT_TRUE(f.has_value);
  EXPECT_EQ(f.names, (std::vector<std::string>{"site", "item", "location",
                                               "mailbox", "mail", "date"}));
}

TEST(PlanFeaturesTest, Q7WildcardPlusDescendant) {
  PlanFeatures f = MustExtract("/site//person/*/city[text()='Pocatello']");
  EXPECT_TRUE(f.has_wildcard);
  EXPECT_TRUE(f.has_descendant);
  EXPECT_EQ(f.branch_predicates, 0u);
  EXPECT_TRUE(f.has_value);
  EXPECT_EQ(f.names, (std::vector<std::string>{"site", "person", "city"}));
}

TEST(PlanFeaturesTest, Q8NestedBranchesWithWildcard) {
  PlanFeatures f = MustExtract(
      "//closed_auction[*[person='person1']]/date[text()='12/15/1999']");
  EXPECT_TRUE(f.has_wildcard);
  EXPECT_TRUE(f.has_descendant);
  EXPECT_EQ(f.branch_predicates, 2u);  // [*[...]] and the nested [person=v]
  EXPECT_TRUE(f.has_value);
  EXPECT_EQ(f.names,
            (std::vector<std::string>{"closed_auction", "person", "date"}));
}

TEST(PlanFeaturesTest, MalformedAndEmptyPathsFail) {
  EXPECT_FALSE(ExtractPlanFeatures("").ok());
  EXPECT_FALSE(ExtractPlanFeatures("book/author").ok());  // not absolute
  EXPECT_FALSE(ExtractPlanFeatures("/book[").ok());
  EXPECT_FALSE(ExtractPlanFeatures("//").ok());
}

TEST(PlanFeaturesTest, ShapesNoEngineLowersAreRefused) {
  // Every engine lowers a path to the same query tree, and that lowering
  // rejects a trailing wildcard (it cannot be a sequence element), so
  // extraction refuses "/a/*" with the lowering's NotSupported.
  auto features = ExtractPlanFeatures("/a/*");
  ASSERT_FALSE(features.ok());
  EXPECT_TRUE(features.status().IsNotSupported())
      << features.status().ToString();
  // A wildcard with a named node beneath it lowers.
  PlanFeatures f = MustExtract("/a/*/b");
  EXPECT_TRUE(f.has_wildcard);
  EXPECT_EQ(f.names, (std::vector<std::string>{"a", "b"}));
}

TEST(PlanFeaturesTest, SelectivityIsTightestName) {
  NameStats stats;
  stats.frequency = {{"book", 100}, {"author", 50}, {"title", 10}};
  stats.total_elements = 1000;
  EXPECT_DOUBLE_EQ(
      EstimateSelectivity(MustExtract("/book/author"), stats), 0.05);
  EXPECT_DOUBLE_EQ(
      EstimateSelectivity(MustExtract("/book/title"), stats), 0.01);
  // A name the corpus never saw is provably empty: selectivity 0.
  EXPECT_DOUBLE_EQ(
      EstimateSelectivity(MustExtract("/inproceedings/title"), stats), 0.0);
}

TEST(PlanFeaturesTest, SelectivityDefaultsToOne) {
  NameStats empty;
  EXPECT_DOUBLE_EQ(EstimateSelectivity(MustExtract("/book"), empty), 1.0);
  // A shape whose only concrete node is a value names nothing concrete.
  NameStats stats;
  stats.frequency = {{"book", 1}};
  stats.total_elements = 10;
  EXPECT_DOUBLE_EQ(
      EstimateSelectivity(MustExtract("/*[text()='x']"), stats), 1.0);
}

// ---------------------------------------------------------------------------
// Routing decisions. The metrics registry is process-wide, so the tests
// read counter deltas.

class RouterDecisionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("vist_router_decision_" + std::to_string(getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    std::filesystem::remove_all(dir_);
    auto vist = VistIndex::Create(dir_ + "/vist", VistOptions());
    ASSERT_TRUE(vist.ok()) << vist.status().ToString();
    vist_ = std::move(vist).value();
    auto paths = PathIndex::Create(dir_ + "/paths", vist_->symbols());
    ASSERT_TRUE(paths.ok()) << paths.status().ToString();
    paths_ = std::move(paths).value();
    auto nodes = NodeIndex::Create(dir_ + "/nodes", vist_->symbols());
    ASSERT_TRUE(nodes.ok()) << nodes.status().ToString();
    nodes_ = std::move(nodes).value();
    router_ = std::make_unique<Router>(vist_.get(), paths_.get(),
                                       nodes_.get());
  }

  void TearDown() override {
    // The ViST index owns the symbol table the baselines borrow.
    router_.reset();
    nodes_.reset();
    paths_.reset();
    vist_.reset();
    std::filesystem::remove_all(dir_);
  }

  void Insert(const std::string& text, uint64_t doc_id) {
    auto doc = xml::Parse(text);
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    ASSERT_TRUE(router_->InsertDocument(*doc->root(), doc_id).ok());
  }

  static uint64_t Picks(const std::string& engine) {
    return obs::GetCounter("router.picks." + engine).value();
  }

  std::string dir_;
  std::unique_ptr<VistIndex> vist_;
  std::unique_ptr<PathIndex> paths_;
  std::unique_ptr<NodeIndex> nodes_;
  std::unique_ptr<Router> router_;
};

TEST_F(RouterDecisionTest, ColdBucketRunsEachEngineThreeTimes) {
  for (uint64_t id = 1; id <= 4; ++id) {
    Insert("<doc><item>v" + std::to_string(id) + "</item></doc>", id);
  }
  const uint64_t vist = Picks("vist");
  const uint64_t path = Picks("path");
  const uint64_t node = Picks("node");
  for (int i = 0; i < 9; ++i) {
    auto ids = router_->Query("/doc/item[text()='v2']");
    ASSERT_TRUE(ids.ok()) << ids.status().ToString();
    EXPECT_EQ(*ids, std::vector<uint64_t>{2});
  }
  EXPECT_EQ(Picks("vist") - vist, 3u);
  EXPECT_EQ(Picks("path") - path, 3u);
  EXPECT_EQ(Picks("node") - node, 3u);
}

TEST_F(RouterDecisionTest, FailsOverWhenVistCannotCompile) {
  Insert("<r><x>1</x><x>2</x><x>3</x><x>4</x><x>5</x></r>", 1);
  // Five same-named branches expand to 5! = 120 query sequences, past
  // ViST's cap of 64 alternatives; the baselines compile it.
  constexpr char kQuery[] = "/r[x='1'][x='2'][x='3'][x='4'][x='5']";
  EXPECT_TRUE(vist_->Query(kQuery).status().IsNotSupported());
  auto expected = nodes_->Query(kQuery);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  EXPECT_EQ(*expected, std::vector<uint64_t>{1});

  const uint64_t failovers = obs::GetCounter("router.failovers").value();
  const uint64_t vist_picks = Picks("vist");
  auto routed = router_->Query(kQuery);
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  EXPECT_EQ(*routed, *expected);
  EXPECT_GT(obs::GetCounter("router.failovers").value(), failovers);
  // A pick counts the engine that answered, not the one that failed.
  EXPECT_EQ(Picks("vist"), vist_picks);
}

TEST_F(RouterDecisionTest, EngineThatCannotCompileRanksLast) {
  for (uint64_t id = 1; id <= 50; ++id) {
    Insert("<r><x>1</x><x>2</x><x>3</x><x>4</x><x>5</x><y>" +
               std::to_string(id) + "</y></r>",
           id);
  }
  // 120 alternatives: ViST cannot compile it (see above).
  constexpr char kQuery[] = "/r[x='1'][x='2'][x='3'][x='4'][x='5']";
  auto expected = nodes_->Query(kQuery);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ASSERT_EQ(expected->size(), 50u);

  const uint64_t failovers = obs::GetCounter("router.failovers").value();
  const uint64_t vist_picks = Picks("vist");
  constexpr uint64_t kQueries = 200;
  for (uint64_t i = 0; i < kQueries; ++i) {
    auto routed = router_->Query(kQuery);
    ASSERT_TRUE(routed.ok()) << routed.status().ToString();
    ASSERT_EQ(*routed, *expected);
  }
  EXPECT_EQ(Picks("vist"), vist_picks);
  // ViST fails over once when the bucket is cold, then ranks last and
  // runs only as the warm probe: at most the router's kMinObservations (3)
  // plus one per kExploreEvery (64) queries. Every query paid a failover
  // before NotSupported was recorded.
  const uint64_t bound = 3 + (kQueries + 63) / 64;
  EXPECT_LE(obs::GetCounter("router.failovers").value() - failovers, bound);
}

TEST_F(RouterDecisionTest, UncompilableQueryLeavesAnsweringEngineRanked) {
  for (uint64_t id = 1; id <= 20; ++id) {
    Insert(id % 2 == 0 ? "<r><x>1</x><x>2</x><x>3</x><x>4</x><x>5</x></r>"
                       : "<r><x>1</x><x>2</x></r>",
           id);
  }
  // One feature bucket (the same names; branch counts clamp at 2). ViST
  // compiles the two-branch query (2 alternatives), not the five-branch
  // one (120).
  constexpr char kTwo[] = "/r[x='1'][x='2']";
  constexpr char kFive[] = "/r[x='1'][x='2'][x='3'][x='4'][x='5']";
  ASSERT_TRUE(vist_->Query(kTwo).ok());
  ASSERT_TRUE(vist_->Query(kFive).status().IsNotSupported());
  auto two = nodes_->Query(kTwo);
  auto five = nodes_->Query(kFive);
  ASSERT_TRUE(two.ok() && five.ok());
  ASSERT_EQ(two->size(), 20u);
  ASSERT_EQ(five->size(), 10u);

  const uint64_t failovers = obs::GetCounter("router.failovers").value();
  const uint64_t vist_picks = Picks("vist");
  // Alternating from a fresh bucket, the cold round-robin gives ViST the
  // first two-branch query, then the fourth query, a five-branch one,
  // once every engine has answered once. That NotSupported fails over but
  // leaves ViST's observation in place, so the round-robin goes on giving
  // ViST two-branch queries until it has 3 observations: queries 5 and 7.
  for (int i = 0; i < 9; ++i) {
    const bool compilable = i % 2 == 0;
    auto routed = router_->Query(compilable ? kTwo : kFive);
    ASSERT_TRUE(routed.ok()) << routed.status().ToString();
    EXPECT_EQ(*routed, compilable ? *two : *five);
  }
  EXPECT_EQ(Picks("vist") - vist_picks, 3u);
  EXPECT_EQ(obs::GetCounter("router.failovers").value() - failovers, 1u);
}

TEST_F(RouterDecisionTest, ShapeNoEngineLowersIsRefusedInPrepare) {
  Insert("<a0><b/></a0>", 1);
  const uint64_t failovers = obs::GetCounter("router.failovers").value();
  const uint64_t vist = Picks("vist");
  const uint64_t path = Picks("path");
  const uint64_t node = Picks("node");
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(router_->Prepare("/a0/*").status().IsNotSupported());
    auto routed = router_->Query("/a0/*");
    ASSERT_FALSE(routed.ok());
    EXPECT_TRUE(routed.status().IsNotSupported())
        << routed.status().ToString();
  }
  // No engine ran, so nothing failed over and nothing was picked.
  EXPECT_EQ(obs::GetCounter("router.failovers").value(), failovers);
  EXPECT_EQ(Picks("vist"), vist);
  EXPECT_EQ(Picks("path"), path);
  EXPECT_EQ(Picks("node"), node);
}

}  // namespace
}  // namespace exec
}  // namespace vist
