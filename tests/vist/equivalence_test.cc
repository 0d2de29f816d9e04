// The central correctness property (DESIGN.md §4, invariant 5): ViST,
// RIST, the naive suffix-tree algorithm, and the per-sequence oracle must
// return identical answers on randomized corpora and queries — across
// allocator strategies, λ values, and after deletions. Besides a fixed
// query list, each parameter draws random leading chains, the shape the
// matcher starts from (vist/matcher.h).

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <map>

#include "common/random.h"
#include "query/query_sequence.h"
#include "suffix/naive_search.h"
#include "vist/rist_builder.h"
#include "vist/vist_index.h"
#include "xml/parser.h"

namespace vist {
namespace {

std::string RandomXml(Random* rng, int max_depth) {
  static const char* kNames[] = {"a", "b", "c", "d", "e"};
  static const char* kValues[] = {"x", "y", "z", "w"};
  std::function<std::string(int)> gen = [&](int depth) {
    std::string name = kNames[rng->Uniform(5)];
    std::string out = "<" + name;
    if (rng->Bernoulli(0.35)) {
      out += " at='" + std::string(kValues[rng->Uniform(4)]) + "'";
    }
    out += ">";
    if (rng->Bernoulli(0.3)) out += kValues[rng->Uniform(4)];
    if (depth < max_depth) {
      const int kids = static_cast<int>(rng->Uniform(4));
      for (int i = 0; i < kids; ++i) out += gen(depth + 1);
    }
    out += "</" + name + ">";
    return out;
  };
  return gen(0);
}

// A random query whose leading chain follows a root-to-element path of
// `root`, so that names repeat along it and most queries have answers:
//   - 1-5 steps at increasing path positions, each '/' or '//' and a name
//     or '*' ('//' wherever positions are skipped);
//   - optionally a predicate on a non-last step, so that a later query
//     element hangs off the chain;
//   - optionally a value or child predicate on the last step.
// Predicates describe a child of the node they sit on, or else are random.
std::string RandomChainQuery(const xml::Node& root, Random* rng) {
  static const char* kNames[] = {"a", "b", "c", "d", "e"};
  static const char* kValues[] = {"x", "y", "z", "w"};
  std::vector<const xml::Node*> path = {&root};
  for (;;) {
    std::vector<const xml::Node*> kids;
    for (const auto& child : path.back()->children()) {
      if (child->is_element()) kids.push_back(child.get());
    }
    if (kids.empty()) break;
    path.push_back(kids[rng->Uniform(kids.size())]);
  }
  auto predicate = [&](const xml::Node& node) -> std::string {
    if (node.num_children() == 0 || rng->Bernoulli(0.2)) {
      return "[" + std::string(kNames[rng->Uniform(5)]) + "='" +
             kValues[rng->Uniform(4)] + "']";
    }
    const xml::Node& child = *node.child(rng->Uniform(node.num_children()));
    if (child.is_text()) return "[text()='" + child.value() + "']";
    if (child.is_attribute()) {
      return "[" + child.name() + "='" + child.value() + "']";
    }
    const std::string text = child.Text();
    if (!text.empty() && rng->Bernoulli(0.5)) {
      return "[" + child.name() + "='" + text + "']";
    }
    return "[" + child.name() + "]";
  };

  // A random sample of 1-5 path positions, in path order.
  std::vector<size_t> positions(path.size());
  for (size_t i = 0; i < positions.size(); ++i) positions[i] = i;
  const size_t steps = std::min<size_t>(1 + rng->Uniform(5), path.size());
  for (size_t i = 0; i < steps; ++i) {
    std::swap(positions[i],
              positions[i + rng->Uniform(positions.size() - i)]);
  }
  positions.resize(steps);
  std::sort(positions.begin(), positions.end());
  const size_t predicated =
      positions.size() > 1 && rng->Bernoulli(0.7)
          ? rng->Uniform(positions.size() - 1)
          : positions.size();
  const bool end_predicate = rng->Bernoulli(0.6);
  std::string query;
  size_t next = 0;
  for (size_t i = 0; i < positions.size(); ++i) {
    const xml::Node& node = *path[positions[i]];
    const bool child = positions[i] == next && rng->Bernoulli(0.6);
    query += child ? "/" : "//";
    // A query needs a concrete last node: a bare trailing '*' is no query.
    // A leading '//*' binds every node of the index, which makes the
    // query slow without testing the chain, so a leading '*' is a child.
    const bool star = rng->Bernoulli(0.25) &&
                      (i + 1 < positions.size() || end_predicate) &&
                      (i > 0 || child);
    query += star ? std::string("*") : node.name();
    if (i == predicated) query += predicate(node);
    next = positions[i] + 1;
  }
  if (end_predicate) query += predicate(*path[positions.back()]);
  return query;
}

const char* kQueries[] = {
    "/a",
    "/a/b",
    "/b//c",
    "/a[b][c]",
    "/a[at='x']",
    "//b[at='y']",
    "/a//c[at='z']",
    "/a/*[b]",
    "/a/*[at='w']",
    "//c[text()='x']",
    "/a[b/c]/b",
    "/a[b][b/d]",
    "//a//b//c",
    "/c[.//d='y']",
    "/a[b[c][d]]",
    "/e//*[a]",
    // A value after a sibling of the chain: the matcher's anchors.
    "/a[c='x']/b",
    "/a[d='y']//b",
    "/a[*='z']/b",
    "/a//b[e='w']/c/d[text()='x']",
    "//b[e='x']/a",
    "//c[e='y']//b",
    "//*[e='z']/a",
    "//b[d='w']/c/a",
};

// Random chain queries per parameter, on top of kQueries.
constexpr int kChainQueries = 240;

struct EquivParam {
  uint64_t seed;
  bool statistical;
  uint64_t lambda;
  int docs;
};

class EquivalenceTest : public ::testing::TestWithParam<EquivParam> {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("vist_equiv_" + std::to_string(getpid()) + "_" +
            std::to_string(GetParam().seed) + "_" +
            std::to_string(GetParam().statistical) + "_" +
            std::to_string(GetParam().lambda));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_P(EquivalenceTest, AllEnginesAgree) {
  const EquivParam& param = GetParam();
  Random rng(param.seed);

  // Generate the corpus; keep documents for deletion later.
  std::vector<std::pair<uint64_t, std::string>> corpus;
  for (int i = 1; i <= param.docs; ++i) {
    corpus.emplace_back(i, RandomXml(&rng, 4));
  }

  // Stats sampling pass (shares the interning order with the index below,
  // because we feed documents in the same order).
  SymbolTable symtab;
  SchemaStats stats;
  std::map<uint64_t, Sequence> sequences;
  for (const auto& [id, text] : corpus) {
    auto doc = xml::Parse(text);
    ASSERT_TRUE(doc.ok());
    sequences[id] = BuildSequence(*doc->root(), &symtab);
    stats.CollectFrom(sequences[id]);
  }

  // ViST, built by dynamic insertion.
  VistOptions options;
  options.lambda = param.lambda;
  if (param.statistical) {
    options.allocator = VistOptions::AllocatorKind::kStatistical;
    options.stats = &stats;
  }
  auto vist = VistIndex::Create((dir_ / "vist").string(), options);
  ASSERT_TRUE(vist.ok()) << vist.status().ToString();
  for (const auto& [id, text] : corpus) {
    auto doc = xml::Parse(text);
    ASSERT_TRUE((*vist)->InsertDocument(*doc->root(), id).ok()) << id;
  }

  // RIST, bulk-built; and the naive trie.
  std::vector<std::pair<uint64_t, Sequence>> docs(sequences.begin(),
                                                  sequences.end());
  auto rist = RistIndex::Build((dir_ / "rist").string(), docs, &symtab);
  ASSERT_TRUE(rist.ok()) << rist.status().ToString();
  SequenceTrie trie;
  for (const auto& [id, seq] : docs) trie.Insert(seq, id);

  std::vector<std::string> queries(std::begin(kQueries), std::end(kQueries));
  Random query_rng(param.seed + 1);
  for (int i = 0; i < kChainQueries; ++i) {
    const auto& text = corpus[query_rng.Uniform(corpus.size())].second;
    auto doc = xml::Parse(text);
    ASSERT_TRUE(doc.ok());
    queries.push_back(RandomChainQuery(*doc->root(), &query_rng));
  }

  for (const std::string& path : queries) {
    auto compiled = query::CompilePath(path, (*vist)->symbols() != nullptr
                                                 ? *(*vist)->symbols()
                                                 : symtab);
    ASSERT_TRUE(compiled.ok()) << path;
    // Oracle.
    std::vector<uint64_t> expected;
    for (const auto& [id, seq] : sequences) {
      if (query::MatchesAny(*compiled, seq)) expected.push_back(id);
    }
    // Engines.
    auto vist_ids = (*vist)->QueryCompiled(*compiled);
    ASSERT_TRUE(vist_ids.ok()) << path << ": " << vist_ids.status().ToString();
    EXPECT_EQ(*vist_ids, expected) << "ViST, " << path;
    auto rist_ids = (*rist)->QueryCompiled(*compiled);
    ASSERT_TRUE(rist_ids.ok()) << path;
    EXPECT_EQ(*rist_ids, expected) << "RIST, " << path;
    EXPECT_EQ(NaiveSearch(trie, *compiled), expected) << "Naive, " << path;
  }

  // Delete every other document from ViST; answers must track the oracle.
  for (size_t i = 0; i < corpus.size(); i += 2) {
    auto doc = xml::Parse(corpus[i].second);
    ASSERT_TRUE((*vist)->DeleteDocument(*doc->root(), corpus[i].first).ok())
        << corpus[i].first;
    sequences.erase(corpus[i].first);
  }
  for (const std::string& path : queries) {
    auto compiled = query::CompilePath(path, symtab);
    ASSERT_TRUE(compiled.ok());
    std::vector<uint64_t> expected;
    for (const auto& [id, seq] : sequences) {
      if (query::MatchesAny(*compiled, seq)) expected.push_back(id);
    }
    auto vist_ids = (*vist)->QueryCompiled(*compiled);
    ASSERT_TRUE(vist_ids.ok()) << path;
    EXPECT_EQ(*vist_ids, expected) << "ViST after deletions, " << path;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EquivalenceTest,
    ::testing::Values(EquivParam{101, false, 16, 80},
                      EquivParam{202, false, 4, 80},
                      EquivParam{303, false, 64, 60},
                      EquivParam{404, true, 16, 80},
                      EquivParam{505, true, 8, 60},
                      // Tiny λ forces deep geometric shrink + underflows.
                      EquivParam{606, false, 2, 60}),
    [](const ::testing::TestParamInfo<EquivParam>& info) {
      return "seed" + std::to_string(info.param.seed) +
             (info.param.statistical ? "_stat" : "_unif") + "_lambda" +
             std::to_string(info.param.lambda);
    });

}  // namespace
}  // namespace vist
