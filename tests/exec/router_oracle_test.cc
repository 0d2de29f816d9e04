// The router differential oracle (ctest label: differential).
//
// A router is only trustworthy if it is provably answer-identical to
// every engine it fronts. This suite generates thousands of seeded random
// queries — wildcards, '//' axes, branch and value predicates — over a
// seeded random corpus, and runs every query through the Router AND all
// three bare engines across several mutation epochs (insert batches,
// deletes, flushes). Every answer must be byte-identical; error outcomes
// must agree too.
//
// Corpus constraint that makes exact agreement possible: each element
// name appears at most once per document. The engines genuinely disagree
// outside it — ViST's unverified sequence matching over-approximates
// branching queries when a document repeats a name (vist/equivalence_test
// A2), and the path baseline joins at document granularity — so a corpus
// with repeated names would test the engines' known semantic divergence,
// not the router's dispatch. Values may repeat freely.
//
// All randomness is seeded; a failure replays.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baseline/node_index.h"
#include "baseline/path_index.h"
#include "common/random.h"
#include "exec/router.h"
#include "obs/metrics.h"
#include "vist/vist_index.h"
#include "xml/parser.h"

namespace vist {
namespace exec {
namespace {

constexpr uint64_t kSeed = 20030609;  // SIGMOD'03, the paper's venue
constexpr int kEpochs = 3;
constexpr int kQueriesPerEpoch = 1800;  // 3 x 1800 = 5400 >= 5000
constexpr int kDocsPerEpoch = 25;
constexpr int kDeletesPerEpoch = 5;
constexpr size_t kTagPool = 24;
constexpr size_t kValuePool = 8;

std::string Tag(size_t i) { return "a" + std::to_string(i); }
std::string Value(size_t i) { return "v" + std::to_string(i); }

// One generated document: a random tree over distinct tags (each tag at
// most once — see the header comment), with value leaves from a shared
// pool.
std::string GenDocument(Random* rng) {
  struct Elem {
    size_t tag;
    std::optional<size_t> value;
    std::vector<size_t> children;  // indices into elems
  };
  const size_t count = 3 + rng->Uniform(5);  // 3..7 elements
  std::vector<size_t> tags;
  for (size_t i = 0; i < kTagPool; ++i) tags.push_back(i);
  for (size_t i = 0; i < count; ++i) {  // partial Fisher-Yates
    std::swap(tags[i], tags[i + rng->Uniform(kTagPool - i)]);
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

// One generated query: 1-3 steps mixing child/descendant axes and '*'
// wildcards (never in the last step — the sequence encoding rejects
// trailing placeholders in every engine alike), with optional value and
// branch predicates on the last step. Branching stays at <= 2 predicates
// so ViST's permutation expansion never trips its cap and every engine
// agrees on ok-vs-error.
std::string GenQuery(Random* rng) {
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
      query += rng->Bernoulli(0.05) ? "zz" : Tag(rng->Uniform(kTagPool));
    }
  }
  if (rng->Bernoulli(0.25)) {
    query += "[" + Tag(rng->Uniform(kTagPool));
    if (rng->Bernoulli(0.5)) query += "='" + Value(rng->Uniform(kValuePool)) + "'";
    query += "]";
  }
  if (rng->Bernoulli(0.4)) {
    query += "[text()='" + Value(rng->Uniform(kValuePool)) + "']";
  }
  return query;
}

TEST(RouterOracleTest, RouterMatchesEveryBareEngineAcrossMutationEpochs) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("vist_router_oracle_" + std::to_string(getpid())))
          .string();
  std::filesystem::remove_all(dir);
  {  // scope the engines so they close before the directory is removed
  auto vist = VistIndex::Create(dir + "/vist", VistOptions());
  ASSERT_TRUE(vist.ok()) << vist.status().ToString();
  auto paths = PathIndex::Create(dir + "/paths", (*vist)->symbols());
  ASSERT_TRUE(paths.ok()) << paths.status().ToString();
  auto nodes = NodeIndex::Create(dir + "/nodes", (*vist)->symbols());
  ASSERT_TRUE(nodes.ok()) << nodes.status().ToString();
  Router router(vist->get(), paths->get(), nodes->get());

  Random rng(kSeed);
  std::vector<std::pair<uint64_t, std::string>> live;  // (doc_id, xml)
  uint64_t next_doc_id = 1;
  uint64_t compared = 0;

  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    // --- mutation phase: inserts, deletes, and a flush, all through the
    // router so every engine sees the identical corpus.
    for (int d = 0; d < kDocsPerEpoch; ++d) {
      const std::string xml = GenDocument(&rng);
      auto doc = xml::Parse(xml);
      ASSERT_TRUE(doc.ok()) << xml;
      ASSERT_TRUE(router.InsertDocument(*doc->root(), next_doc_id).ok());
      live.emplace_back(next_doc_id, xml);
      ++next_doc_id;
    }
    for (int d = 0; d < kDeletesPerEpoch && !live.empty(); ++d) {
      const size_t victim = rng.Uniform(live.size());
      auto doc = xml::Parse(live[victim].second);
      ASSERT_TRUE(doc.ok());
      ASSERT_TRUE(
          router.DeleteDocument(*doc->root(), live[victim].first).ok());
      live.erase(live.begin() + static_cast<ptrdiff_t>(victim));
    }
    if (epoch % 2 == 0) {
      ASSERT_TRUE(router.Flush().ok());
    }

    // --- differential phase: router vs. every bare engine.
    for (int q = 0; q < kQueriesPerEpoch; ++q) {
      const std::string query = GenQuery(&rng);
      auto routed = router.Query(query);
      auto direct_vist = (*vist)->Query(query);
      auto direct_path = (*paths)->Query(query);
      auto direct_node = (*nodes)->Query(query);
      ASSERT_EQ(routed.ok(), direct_vist.ok())
          << query << " router: " << routed.status().ToString()
          << " vist: " << direct_vist.status().ToString();
      ASSERT_EQ(routed.ok(), direct_path.ok())
          << query << " path: " << direct_path.status().ToString();
      ASSERT_EQ(routed.ok(), direct_node.ok())
          << query << " node: " << direct_node.status().ToString();
      if (routed.ok()) {
        ASSERT_EQ(*routed, *direct_vist) << query << " (vist disagrees)";
        ASSERT_EQ(*routed, *direct_path) << query << " (path disagrees)";
        ASSERT_EQ(*routed, *direct_node) << query << " (node disagrees)";
      }
      ++compared;
    }

    // Shapes every engine must reject identically, once per epoch: a
    // trailing wildcard (no sequence encoding) and a malformed path.
    for (const char* bad : {"/a0/*", "not-a-path["}) {
      auto routed = router.Query(bad);
      auto direct = (*vist)->Query(bad);
      ASSERT_FALSE(routed.ok()) << bad;
      ASSERT_FALSE(direct.ok()) << bad;
      ASSERT_EQ(routed.status().code(), direct.status().code()) << bad;
    }
  }

  ASSERT_GE(compared, 5000u);
  // The router actually routed: over a workload this diverse, no single
  // engine should have taken every query.
  const uint64_t vist_picks = obs::GetCounter("router.picks.vist").value();
  const uint64_t path_picks = obs::GetCounter("router.picks.path").value();
  const uint64_t node_picks = obs::GetCounter("router.picks.node").value();
  EXPECT_GT(vist_picks + path_picks + node_picks, compared - 1);
  EXPECT_GT(path_picks, 0u);
  EXPECT_GT(node_picks, 0u);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace exec
}  // namespace vist
