#include <gtest/gtest.h>

#include <filesystem>
#include <functional>

#include "common/random.h"
#include "vist/vist_index.h"
#include "xml/parser.h"

namespace vist {
namespace {

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

// A spine of `depth` nested elements; each spine element may carry an
// attribute, a text value and a leaf side child.
std::string DeepXml(Random* rng, int depth) {
  static const char* kNames[] = {"a", "b", "c", "d"};
  static const char* kValues[] = {"x", "y", "z"};
  std::string open, close;
  for (int level = 0; level < depth; ++level) {
    const std::string name = kNames[rng->Uniform(4)];
    open += "<" + name;
    if (rng->Bernoulli(0.3)) {
      open += " at='" + std::string(kValues[rng->Uniform(3)]) + "'";
    }
    open += ">";
    if (rng->Bernoulli(0.3)) open += kValues[rng->Uniform(3)];
    if (rng->Bernoulli(0.3)) {
      const std::string side = kNames[rng->Uniform(4)];
      open += "<" + side + ">" + kValues[rng->Uniform(3)] + "</" + side + ">";
    }
    close = "</" + name + ">" + close;
  }
  return open + close;
}

class BulkLoadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("vist_bulk_test_" + std::to_string(getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

// Builds `corpus` twice, one InsertDocument at a time and in one
// BulkLoadSequences call, and requires the two indexes to agree in every
// observable: entry and document counts, depth, underflow runs, a clean
// integrity check, and the answers. `stats` receives the dynamic build's.
void ExpectBulkLoadMatchesDynamic(const std::filesystem::path& dir,
                                  const VistOptions& options,
                                  const std::vector<std::string>& corpus,
                                  IndexStats* stats) {
  auto dynamic = VistIndex::Create((dir / "dyn").string(), options);
  auto bulk = VistIndex::Create((dir / "bulk").string(), options);
  ASSERT_TRUE(dynamic.ok() && bulk.ok());
  std::vector<std::pair<uint64_t, Sequence>> sequences;
  for (size_t i = 0; i < corpus.size(); ++i) {
    auto doc = xml::Parse(corpus[i]);
    ASSERT_TRUE(doc.ok()) << corpus[i];
    ASSERT_TRUE((*dynamic)->InsertDocument(*doc->root(), i + 1).ok()) << i;
    sequences.emplace_back(
        i + 1, BuildSequence(*doc->root(), (*bulk)->symbols()));
  }
  ASSERT_TRUE((*bulk)->BulkLoadSequences(sequences).ok());

  auto dyn_stats = (*dynamic)->Stats();
  auto bulk_stats = (*bulk)->Stats();
  ASSERT_TRUE(dyn_stats.ok() && bulk_stats.ok());
  EXPECT_EQ(bulk_stats->num_documents, corpus.size());
  EXPECT_EQ(bulk_stats->num_documents, dyn_stats->num_documents);
  EXPECT_EQ(bulk_stats->num_entries, dyn_stats->num_entries);
  EXPECT_EQ(bulk_stats->max_depth, dyn_stats->max_depth);
  EXPECT_EQ(bulk_stats->underflow_runs, dyn_stats->underflow_runs);
  // Sorted writes pack pages at least as densely as random inserts.
  EXPECT_LE(bulk_stats->size_bytes, dyn_stats->size_bytes);
  for (VistIndex* index : {dynamic->get(), bulk->get()}) {
    auto report = index->CheckIntegrity();
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->ok()) << report->problems.front();
    EXPECT_EQ(report->doc_entries, corpus.size());
  }

  for (const char* q :
       {"/a", "/a/b", "/a[b][c]", "//b[at='y']", "/a//c", "/a/*[at='z']",
        "//c[text()='x']", "/a[b/c]/b", "/c[.//d='y']", "//d//a//b"}) {
    auto d = (*dynamic)->Query(q);
    auto b = (*bulk)->Query(q);
    ASSERT_TRUE(d.ok() && b.ok()) << q;
    EXPECT_EQ(*b, *d) << q;
  }
  *stats = *dyn_stats;
}

TEST_F(BulkLoadTest, MatchesDynamicInsertionExactly) {
  Random rng(321);
  std::vector<std::string> corpus;
  for (int i = 0; i < 120; ++i) corpus.push_back(RandomXml(&rng, 4));
  IndexStats stats;
  ExpectBulkLoadMatchesDynamic(dir_, VistOptions(), corpus, &stats);
  EXPECT_GT(stats.underflow_runs, 0u);
}

// λ = 256 exhausts the formula region within a few levels, so nearly
// every document of 4-28 levels ends in a scope-underflow run, borrowing
// from whichever ancestor's reserve still has room.
TEST_F(BulkLoadTest, MatchesDynamicInsertionUnderDeepBorrowing) {
  Random rng(4242);
  std::vector<std::string> corpus;
  for (int i = 0; i < 200; ++i) {
    corpus.push_back(DeepXml(&rng, 4 + static_cast<int>(rng.Uniform(25))));
  }
  VistOptions options;
  options.lambda = 256;
  IndexStats stats;
  ExpectBulkLoadMatchesDynamic(dir_, options, corpus, &stats);
  EXPECT_GT(stats.underflow_runs, corpus.size() / 2);
}

TEST_F(BulkLoadTest, BulkLoadedIndexStaysDynamic) {
  auto index = VistIndex::Create(dir_.string(), VistOptions());
  ASSERT_TRUE(index.ok());
  std::vector<std::pair<uint64_t, Sequence>> sequences;
  for (int i = 0; i < 10; ++i) {
    auto doc = xml::Parse("<a><b>v" + std::to_string(i) + "</b></a>");
    ASSERT_TRUE(doc.ok());
    sequences.emplace_back(i + 1,
                           BuildSequence(*doc->root(), (*index)->symbols()));
  }
  ASSERT_TRUE((*index)->BulkLoadSequences(sequences).ok());
  // Insert and delete dynamically afterwards.
  auto extra = xml::Parse("<a><c>new</c></a>");
  ASSERT_TRUE((*index)->InsertDocument(*extra->root(), 11).ok());
  auto c = (*index)->Query("/a/c");
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*c, (std::vector<uint64_t>{11}));
  auto first = xml::Parse("<a><b>v0</b></a>");
  ASSERT_TRUE((*index)->DeleteDocument(*first->root(), 1).ok());
  auto b = (*index)->Query("/a/b");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->size(), 9u);
}

TEST_F(BulkLoadTest, RequiresEmptyIndex) {
  auto index = VistIndex::Create(dir_.string(), VistOptions());
  ASSERT_TRUE(index.ok());
  auto doc = xml::Parse("<a/>");
  ASSERT_TRUE((*index)->InsertDocument(*doc->root(), 1).ok());
  std::vector<std::pair<uint64_t, Sequence>> sequences;
  sequences.emplace_back(2, BuildSequence(*doc->root(), (*index)->symbols()));
  EXPECT_TRUE((*index)->BulkLoadSequences(sequences).IsInvalidArgument());
}

TEST_F(BulkLoadTest, UnderflowHandledDuringBulkLoad) {
  VistOptions options;
  options.lambda = 256;
  auto index = VistIndex::Create(dir_.string(), options);
  ASSERT_TRUE(index.ok());
  std::string xml_text, closing;
  for (int i = 0; i < 40; ++i) {
    xml_text += "<d" + std::to_string(i) + ">";
    closing = "</d" + std::to_string(i) + ">" + closing;
  }
  xml_text += "leaf" + closing;
  auto doc = xml::Parse(xml_text);
  ASSERT_TRUE(doc.ok());
  std::vector<std::pair<uint64_t, Sequence>> sequences;
  sequences.emplace_back(1, BuildSequence(*doc->root(), (*index)->symbols()));
  ASSERT_TRUE((*index)->BulkLoadSequences(sequences).ok());
  auto stats = (*index)->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->underflow_runs, 0u);
  auto hit = (*index)->Query("//d39[text()='leaf']");
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(*hit, (std::vector<uint64_t>{1}));
}

}  // namespace
}  // namespace vist
