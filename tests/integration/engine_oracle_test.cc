// The engine differential oracle (ctest label: differential).
//
// Thousands of seeded random queries — wildcards, '//' axes, branch and
// value predicates — run over seeded random corpora across several
// mutation epochs (insert batches, deletes, flushes). Every insert and
// delete is applied to each engine directly, as bench::LoadEngines does.
// Two corpora, because the engines answer alike only on one of them:
//
//   * Unique names (each element name at most once per document). ViST,
//     the path index and the node index must answer byte for byte alike,
//     and fail alike where they fail. Outside this corpus the engines
//     genuinely differ: ViST's sequence matching is not XPath's tree
//     matching, and the path index joins at document granularity.
//
//   * Repeated names (drawn with replacement). ViST's raw answers must
//     equal naive Algorithm 1 over a trie of the live sequences and the
//     per-sequence oracle query::MatchesAny — the paper's semantics, which
//     differ from XPath both ways (DESIGN.md §4 invariant 6). Verified ViST
//     answers must be a subset of the node index's, which are XPath's;
//     the number of strictly smaller ones is logged, not asserted, until
//     ViST compiles the alternatives in which query nodes share a document
//     node (ROADMAP item 2).
//
// Values may repeat freely in both. All randomness is seeded; a failure
// replays.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "baseline/node_index.h"
#include "baseline/path_index.h"
#include "common/random.h"
#include "query/query_sequence.h"
#include "suffix/naive_search.h"
#include "suffix/trie.h"
#include "vist/vist_index.h"
#include "xml/parser.h"

namespace vist {
namespace {

constexpr uint64_t kSeed = 20030609;  // SIGMOD'03, the paper's venue
constexpr int kEpochs = 3;
constexpr int kQueriesPerEpoch = 1800;  // 3 x 1800 = 5400 >= 5000
constexpr int kRepeatedQueriesPerEpoch = 600;
constexpr int kDocsPerEpoch = 25;
constexpr int kDeletesPerEpoch = 5;
constexpr size_t kTagPool = 24;
constexpr size_t kRepeatedTagPool = 4;
constexpr size_t kValuePool = 8;

std::string Tag(size_t i) { return "a" + std::to_string(i); }
std::string Value(size_t i) { return "v" + std::to_string(i); }

// One generated document: a random tree of 3-7 elements with value
// leaves from a shared pool. With `unique_names` its tags are distinct
// ones from kTagPool; otherwise they are drawn with replacement from
// kRepeatedTagPool, so siblings and ancestors share names often.
std::string GenDocument(Random* rng, bool unique_names) {
  struct Elem {
    size_t tag;
    std::optional<size_t> value;
    std::vector<size_t> children;  // indices into elems
  };
  const size_t count = 3 + rng->Uniform(5);  // 3..7 elements
  std::vector<size_t> tags;
  if (unique_names) {
    for (size_t i = 0; i < kTagPool; ++i) tags.push_back(i);
    for (size_t i = 0; i < count; ++i) {  // partial Fisher-Yates
      std::swap(tags[i], tags[i + rng->Uniform(kTagPool - i)]);
    }
  } else {
    for (size_t i = 0; i < count; ++i) {
      tags.push_back(rng->Uniform(kRepeatedTagPool));
    }
  }
  std::vector<Elem> elems(count);
  for (size_t i = 0; i < count; ++i) {
    elems[i].tag = tags[i];
    if (rng->Bernoulli(0.5)) elems[i].value = rng->Uniform(kValuePool);
    if (i > 0) elems[rng->Uniform(i)].children.push_back(i);
  }
  std::string xml;
  std::function<void(size_t)> emit = [&](size_t i) {
    xml += "<" + Tag(elems[i].tag) + ">";
    if (elems[i].value) xml += Value(*elems[i].value);
    for (size_t child : elems[i].children) emit(child);
    xml += "</" + Tag(elems[i].tag) + ">";
  };
  emit(0);
  return xml;
}

// One generated query over tags 0..tag_pool-1: 1-3 steps mixing child and
// descendant axes and '*' wildcards (never in the last step — the
// sequence encoding rejects trailing placeholders in every engine alike),
// with optional value and branch predicates on the last step. Branching
// stays at <= 2 predicates so ViST's permutation expansion never trips
// its cap and every engine agrees on ok-vs-error.
std::string GenQuery(Random* rng, size_t tag_pool) {
  const size_t depth = 1 + rng->Uniform(3);
  std::string query;
  for (size_t i = 0; i < depth; ++i) {
    query += rng->Bernoulli(0.25) ? "//" : "/";
    const bool last = i + 1 == depth;
    if (!last && rng->Bernoulli(0.15)) {
      query += "*";
    } else {
      // Mostly pool tags; occasionally a name no document uses, so the
      // provably-empty path through every engine is exercised too.
      query += rng->Bernoulli(0.05) ? "zz" : Tag(rng->Uniform(tag_pool));
    }
  }
  if (rng->Bernoulli(0.25)) {
    query += "[" + Tag(rng->Uniform(tag_pool));
    if (rng->Bernoulli(0.5)) query += "='" + Value(rng->Uniform(kValuePool)) + "'";
    query += "]";
  }
  if (rng->Bernoulli(0.4)) {
    query += "[text()='" + Value(rng->Uniform(kValuePool)) + "']";
  }
  return query;
}

xml::Document MustParse(const std::string& text) {
  auto doc = xml::Parse(text);
  EXPECT_TRUE(doc.ok()) << text << ": " << doc.status().ToString();
  return std::move(doc).value();
}

class EngineOracleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("vist_engine_oracle_" + std::to_string(getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    std::filesystem::remove_all(dir_);
  }

  void TearDown() override {
    nodes_.reset();
    paths_.reset();
    vist_.reset();
    std::filesystem::remove_all(dir_);
  }

  // ViST, the path index and the node index, the baselines over ViST's
  // symbol table.
  void CreateEngines(bool store_documents) {
    VistOptions options;
    options.store_documents = store_documents;
    auto vist = VistIndex::Create(dir_ + "/vist", options);
    ASSERT_TRUE(vist.ok()) << vist.status().ToString();
    vist_ = std::move(vist).value();
    auto paths = PathIndex::Create(dir_ + "/paths", vist_->symbols());
    ASSERT_TRUE(paths.ok()) << paths.status().ToString();
    paths_ = std::move(paths).value();
    auto nodes = NodeIndex::Create(dir_ + "/nodes", vist_->symbols());
    ASSERT_TRUE(nodes.ok()) << nodes.status().ToString();
    nodes_ = std::move(nodes).value();
  }

  void Insert(const std::string& text, uint64_t doc_id) {
    xml::Document doc = MustParse(text);
    ASSERT_TRUE(vist_->InsertDocument(*doc.root(), doc_id).ok()) << text;
    const Sequence seq = BuildSequence(*doc.root(), vist_->symbols());
    ASSERT_TRUE(paths_->InsertSequence(seq, doc_id).ok()) << text;
    ASSERT_TRUE(nodes_->InsertDocument(*doc.root(), doc_id).ok()) << text;
  }

  void Delete(const std::string& text, uint64_t doc_id) {
    xml::Document doc = MustParse(text);
    ASSERT_TRUE(vist_->DeleteDocument(*doc.root(), doc_id).ok()) << text;
    const Sequence seq = BuildSequence(*doc.root(), vist_->symbols());
    ASSERT_TRUE(paths_->DeleteSequence(seq, doc_id).ok()) << text;
    ASSERT_TRUE(nodes_->DeleteDocument(*doc.root(), doc_id).ok()) << text;
  }

  // One epoch's mutations: kDocsPerEpoch inserts, kDeletesPerEpoch deletes
  // of random live documents, and a flush of every engine on even epochs.
  void Mutate(Random* rng, int epoch, bool unique_names) {
    for (int d = 0; d < kDocsPerEpoch; ++d) {
      const std::string text = GenDocument(rng, unique_names);
      ASSERT_NO_FATAL_FAILURE(Insert(text, next_doc_id_));
      live_.emplace_back(next_doc_id_, text);
      ++next_doc_id_;
    }
    for (int d = 0; d < kDeletesPerEpoch && !live_.empty(); ++d) {
      const size_t victim = rng->Uniform(live_.size());
      ASSERT_NO_FATAL_FAILURE(
          Delete(live_[victim].second, live_[victim].first));
      live_.erase(live_.begin() + static_cast<ptrdiff_t>(victim));
    }
    if (epoch % 2 == 0) {
      ASSERT_TRUE(vist_->Flush().ok());
      ASSERT_TRUE(paths_->Flush().ok());
      ASSERT_TRUE(nodes_->Flush().ok());
    }
  }

  // The sequences of every live document.
  std::vector<std::pair<uint64_t, Sequence>> LiveSequences() {
    std::vector<std::pair<uint64_t, Sequence>> sequences;
    for (const auto& [doc_id, text] : live_) {
      xml::Document doc = MustParse(text);
      sequences.emplace_back(doc_id,
                             BuildSequence(*doc.root(), vist_->symbols()));
    }
    return sequences;
  }

  std::string dir_;
  // The ViST index owns the symbol table the baselines borrow, so it is
  // declared first and destroyed last.
  std::unique_ptr<VistIndex> vist_;
  std::unique_ptr<PathIndex> paths_;
  std::unique_ptr<NodeIndex> nodes_;
  std::vector<std::pair<uint64_t, std::string>> live_;  // (doc_id, xml)
  uint64_t next_doc_id_ = 1;
};

TEST_F(EngineOracleTest, UniqueNamesEveryEngineAnswersAlikeAcrossEpochs) {
  ASSERT_NO_FATAL_FAILURE(CreateEngines(/*store_documents=*/false));
  Random rng(kSeed);
  uint64_t compared = 0;
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    ASSERT_NO_FATAL_FAILURE(Mutate(&rng, epoch, /*unique_names=*/true));

    for (int q = 0; q < kQueriesPerEpoch; ++q) {
      const std::string query = GenQuery(&rng, kTagPool);
      auto vist = vist_->Query(query);
      auto path = paths_->Query(query);
      auto node = nodes_->Query(query);
      ASSERT_EQ(vist.ok(), path.ok())
          << query << " vist: " << vist.status().ToString()
          << " path: " << path.status().ToString();
      ASSERT_EQ(vist.ok(), node.ok())
          << query << " vist: " << vist.status().ToString()
          << " node: " << node.status().ToString();
      if (vist.ok()) {
        ASSERT_EQ(*vist, *path) << query << " (path disagrees)";
        ASSERT_EQ(*vist, *node) << query << " (node disagrees)";
      } else {
        ASSERT_EQ(vist.status().code(), path.status().code()) << query;
        ASSERT_EQ(vist.status().code(), node.status().code()) << query;
      }
      ++compared;
    }

    // Shapes every engine must reject alike, once per epoch: a trailing
    // wildcard (no sequence encoding) and a malformed path.
    for (const char* bad : {"/a0/*", "not-a-path["}) {
      auto vist = vist_->Query(bad);
      auto path = paths_->Query(bad);
      auto node = nodes_->Query(bad);
      ASSERT_FALSE(vist.ok()) << bad;
      ASSERT_FALSE(path.ok()) << bad;
      ASSERT_FALSE(node.ok()) << bad;
      EXPECT_EQ(vist.status().code(), path.status().code())
          << bad << " vist: " << vist.status().ToString()
          << " path: " << path.status().ToString();
      EXPECT_EQ(vist.status().code(), node.status().code())
          << bad << " vist: " << vist.status().ToString()
          << " node: " << node.status().ToString();
    }
  }
  ASSERT_GE(compared, 5000u);
}

TEST_F(EngineOracleTest, RepeatedNamesViSTFollowsSequenceSemantics) {
  ASSERT_NO_FATAL_FAILURE(CreateEngines(/*store_documents=*/true));
  // The first two fixed queries on three fixed documents, never deleted:
  // ViST misses the first book, whose one `author` would have to bind
  // both query `author` nodes, which one sequence cannot express; raw
  // ViST matches the `a` document, whose predicates hold under different
  // `b`s, and verification removes it.
  const std::vector<std::pair<uint64_t, std::string>> fixed = {
      {1'000'001, "<book><author>David</author></book>"},
      {1'000'002, "<book><author>David</author><author>Ann</author></book>"},
      {1'000'003, "<a><b><c>x</c></b><b><d>y</d></b></a>"},
  };
  for (const auto& [doc_id, text] : fixed) {
    ASSERT_NO_FATAL_FAILURE(Insert(text, doc_id));
  }
  const std::vector<std::string> fixed_queries = {
      "/book[author='David']/author",
      "/a/b[c='x'][d='y']",
      "/a0[a1/a2]/a1",
      "/a0[a1][a1/a3]",
      "//a2[a1='v0']/a1",
      "/a0/a1[a2][a3]",
  };

  Random rng(kSeed + 1);
  uint64_t compared = 0;
  uint64_t answered = 0;  // queries with a non-empty raw answer
  uint64_t strict_subsets = 0;
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    ASSERT_NO_FATAL_FAILURE(Mutate(&rng, epoch, /*unique_names=*/false));
    std::vector<std::pair<uint64_t, Sequence>> sequences = LiveSequences();
    for (const auto& [doc_id, text] : fixed) {
      xml::Document doc = MustParse(text);
      sequences.emplace_back(doc_id,
                             BuildSequence(*doc.root(), vist_->symbols()));
    }
    SequenceTrie trie;
    for (const auto& [doc_id, seq] : sequences) trie.Insert(seq, doc_id);

    std::vector<std::string> queries = fixed_queries;
    for (int q = 0; q < kRepeatedQueriesPerEpoch; ++q) {
      queries.push_back(GenQuery(&rng, kRepeatedTagPool));
    }
    for (const std::string& query : queries) {
      auto compiled = query::CompilePath(query, *vist_->symbols());
      ASSERT_TRUE(compiled.ok()) << query << ": "
                                 << compiled.status().ToString();
      std::vector<uint64_t> expected;
      for (const auto& [doc_id, seq] : sequences) {
        if (query::MatchesAny(*compiled, seq)) expected.push_back(doc_id);
      }
      std::sort(expected.begin(), expected.end());

      auto raw = vist_->Query(query);
      ASSERT_TRUE(raw.ok()) << query << ": " << raw.status().ToString();
      ASSERT_EQ(*raw, expected) << query << " (raw ViST vs MatchesAny)";
      ASSERT_EQ(NaiveSearch(trie, *compiled), expected)
          << query << " (naive Algorithm 1 vs MatchesAny)";
      if (!raw->empty()) ++answered;

      QueryOptions verify;
      verify.verify = true;
      auto verified = vist_->Query(query, verify);
      ASSERT_TRUE(verified.ok()) << query << ": "
                                 << verified.status().ToString();
      auto node = nodes_->Query(query);
      ASSERT_TRUE(node.ok()) << query << ": " << node.status().ToString();
      ASSERT_TRUE(std::includes(node->begin(), node->end(),
                                verified->begin(), verified->end()))
          << query << " (verified ViST is not a subset of the node index)";
      if (verified->size() < node->size()) ++strict_subsets;
      ++compared;
    }
  }
  std::printf(
      "repeated names: %llu queries, %llu with raw answers; verified ViST "
      "is a strict subset of the node index's answer in %llu\n",
      static_cast<unsigned long long>(compared),
      static_cast<unsigned long long>(answered),
      static_cast<unsigned long long>(strict_subsets));
}

}  // namespace
}  // namespace vist
