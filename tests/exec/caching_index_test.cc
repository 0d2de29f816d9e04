// exec::CachingIndex correctness suite.
//
// The load-bearing test is the oracle: for each engine, an interleaving of
// mutations and queries must produce byte-identical results through the
// cache and against the bare index at every epoch — a cache is allowed to
// be fast, never to be wrong. A companion regression proves the oracle has
// teeth: an engine that fails to bump its epoch (simulated by freezing
// epoch() in a wrapper) makes the cached path serve stale results the
// oracle rejects.

#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baseline/node_index.h"
#include "baseline/path_index.h"
#include "exec/caching_index.h"
#include "obs/metrics.h"
#include "vist/vist_index.h"
#include "xml/parser.h"

namespace vist {
namespace exec {
namespace {

xml::Document MustParse(const std::string& text) {
  auto doc = xml::Parse(text);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  return std::move(doc).value();
}

std::string UniqueDoc(uint64_t i) {
  const std::string tag = "u" + std::to_string(i);
  return "<doc><" + tag + "><leaf>text" + std::to_string(i) + "</leaf></" +
         tag + "></doc>";
}

class CachingIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("vist_cache_test_" + std::to_string(getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::unique_ptr<VistIndex> MakeVist(bool store_documents = false) {
    VistOptions options;
    options.store_documents = store_documents;
    auto created = VistIndex::Create(dir_ + "/vist", options);
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    return std::move(created).value();
  }

  std::string dir_;
};

// ---------------------------------------------------------------------------
// NormalizePath

TEST(NormalizePathTest, StripsProvablyIgnorableWhitespace) {
  EXPECT_EQ(CachingIndex::NormalizePath("  /doc/hot  "), "/doc/hot");
  EXPECT_EQ(CachingIndex::NormalizePath("\t/doc/hot\n"), "/doc/hot");
  // Around '/' (when not synthesizing a token), '[' ']' '=' '*' '@'.
  EXPECT_EQ(CachingIndex::NormalizePath("/doc / hot"), "/doc/hot");
  EXPECT_EQ(CachingIndex::NormalizePath("/a[ b = 'v' ]"), "/a[b='v']");
  EXPECT_EQ(CachingIndex::NormalizePath("/a/ * /b"), "/a/*/b");
  EXPECT_EQ(CachingIndex::NormalizePath("//a [ @id = '7' ]"), "//a[@id='7']");
}

TEST(NormalizePathTest, PreservesQuotedLiteralsVerbatim) {
  EXPECT_EQ(CachingIndex::NormalizePath("/a[b=' v ']"), "/a[b=' v ']");
  EXPECT_EQ(CachingIndex::NormalizePath("/a[b=\"two  words\"]"),
            "/a[b=\"two  words\"]");
  // Whitespace after the closing quote is around ']', hence ignorable.
  EXPECT_EQ(CachingIndex::NormalizePath("/a[b='v' ]"), "/a[b='v']");
}

TEST(NormalizePathTest, NeverJoinsTokenFragments) {
  // Each left-hand string is a parse error; stripping its whitespace would
  // produce a *valid* expression and let an invalid query steal a valid
  // query's cache slot. The normalizer must keep them distinct.
  EXPECT_NE(CachingIndex::NormalizePath("/ /a"), "//a");
  EXPECT_NE(CachingIndex::NormalizePath(". //a"), ".//a");
  EXPECT_NE(CachingIndex::NormalizePath("/a b"), "/ab");
  // Kept runs are canonicalized to a single space, so equivalent-by-parser
  // variants still share a key.
  EXPECT_EQ(CachingIndex::NormalizePath("/a \t b"), CachingIndex::NormalizePath("/a b"));
}

// ---------------------------------------------------------------------------
// Epoch protocol

TEST_F(CachingIndexTest, EveryMutatingEntryPointBumpsEpochExactlyOnce) {
  std::unique_ptr<VistIndex> index = MakeVist(/*store_documents=*/true);
  uint64_t epoch = index->epoch();

  xml::Document doc = MustParse(UniqueDoc(1));
  ASSERT_TRUE(index->InsertDocument(*doc.root(), 1).ok());
  EXPECT_EQ(index->epoch(), ++epoch) << "InsertDocument";

  ASSERT_TRUE(index->DeleteDocument(*doc.root(), 1).ok());
  EXPECT_EQ(index->epoch(), ++epoch) << "DeleteDocument";

  ASSERT_TRUE(index->Flush().ok());
  EXPECT_EQ(index->epoch(), ++epoch) << "Flush";

  // Queries must not bump.
  ASSERT_TRUE(index->Query("/doc/u1").ok());
  EXPECT_EQ(index->epoch(), epoch);

  // The sequence entry points, on an index without a document store (one
  // that stores documents refuses them).
  auto sequences = VistIndex::Create(dir_ + "/sequences", VistOptions());
  ASSERT_TRUE(sequences.ok());
  uint64_t seq_epoch = (*sequences)->epoch();
  Sequence seq = BuildSequence(*doc.root(), (*sequences)->symbols());
  ASSERT_TRUE((*sequences)->InsertSequence(seq, 2).ok());
  EXPECT_EQ((*sequences)->epoch(), ++seq_epoch) << "InsertSequence";

  ASSERT_TRUE((*sequences)->DeleteSequence(seq, 2).ok());
  EXPECT_EQ((*sequences)->epoch(), ++seq_epoch) << "DeleteSequence";

  std::vector<std::pair<uint64_t, Sequence>> bulk;
  bulk.emplace_back(3, seq);
  ASSERT_TRUE((*sequences)->BulkLoadSequences(bulk).ok());
  EXPECT_EQ((*sequences)->epoch(), ++seq_epoch) << "BulkLoadSequences";

  // Baselines: same protocol.
  SymbolTable symtab;
  auto paths = PathIndex::Create(dir_ + "/paths", &symtab);
  ASSERT_TRUE(paths.ok());
  uint64_t path_epoch = (*paths)->epoch();
  ASSERT_TRUE((*paths)->AddRefinedPath("/doc/u1").ok());
  EXPECT_EQ((*paths)->epoch(), ++path_epoch) << "AddRefinedPath";
  xml::Document pdoc = MustParse(UniqueDoc(1));
  Sequence pseq = BuildSequence(*pdoc.root(), &symtab);
  ASSERT_TRUE((*paths)->InsertSequence(pseq, 1).ok());
  EXPECT_EQ((*paths)->epoch(), ++path_epoch) << "PathIndex::InsertSequence";
  ASSERT_TRUE((*paths)->DeleteSequence(pseq, 1).ok());
  EXPECT_EQ((*paths)->epoch(), ++path_epoch) << "PathIndex::DeleteSequence";
  ASSERT_TRUE((*paths)->Flush().ok());
  EXPECT_EQ((*paths)->epoch(), ++path_epoch) << "PathIndex::Flush";

  auto nodes = NodeIndex::Create(dir_ + "/nodes", &symtab);
  ASSERT_TRUE(nodes.ok());
  uint64_t node_epoch = (*nodes)->epoch();
  ASSERT_TRUE((*nodes)->InsertDocument(*pdoc.root(), 1).ok());
  EXPECT_EQ((*nodes)->epoch(), ++node_epoch) << "NodeIndex::InsertDocument";
  ASSERT_TRUE((*nodes)->DeleteDocument(*pdoc.root(), 1).ok());
  EXPECT_EQ((*nodes)->epoch(), ++node_epoch) << "NodeIndex::DeleteDocument";
  ASSERT_TRUE((*nodes)->Flush().ok());
  EXPECT_EQ((*nodes)->epoch(), ++node_epoch) << "NodeIndex::Flush";
}

// The failure half of the epoch contract: a rejected mutation still bumps
// exactly once (over-invalidation is safe) and publishes nothing.
void ExpectRejectedMutation(QueryableIndex* index, const char* what,
                            const std::function<Status()>& mutate) {
  auto before = index->Stats();
  ASSERT_TRUE(before.ok());
  const uint64_t epoch = index->epoch();
  EXPECT_FALSE(mutate().ok()) << what << " was not rejected";
  EXPECT_EQ(index->epoch(), epoch + 1) << what;
  auto after = index->Stats();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->size_bytes, before->size_bytes) << what;
  EXPECT_EQ(after->num_documents, before->num_documents) << what;
  EXPECT_EQ(after->num_entries, before->num_entries) << what;
  EXPECT_EQ(after->max_depth, before->max_depth) << what;
  EXPECT_EQ(after->underflow_runs, before->underflow_runs) << what;
}

TEST_F(CachingIndexTest, RejectedMutationBumpsOnceAndPublishesNothing) {
  std::unique_ptr<VistIndex> index = MakeVist(/*store_documents=*/true);
  xml::Document doc = MustParse(UniqueDoc(1));
  ASSERT_TRUE(index->InsertDocument(*doc.root(), 1).ok());
  // Flush frees the pages the insert retired, so the shadow copies a
  // rejected delete makes (and rolls back) come from the freelist rather
  // than growing the file.
  ASSERT_TRUE(index->Flush().ok());
  Sequence seq = BuildSequence(*doc.root(), index->symbols());
  ExpectRejectedMutation(index.get(), "delete of an absent document", [&] {
    return index->DeleteDocument(*doc.root(), 7);
  });
  // A sequence carries no document text, so an index that stores
  // documents refuses sequence writes.
  ExpectRejectedMutation(index.get(), "sequence insert into a document store",
                         [&] { return index->InsertSequence(seq, 2); });
  ExpectRejectedMutation(index.get(), "sequence delete from a document store",
                         [&] { return index->DeleteSequence(seq, 1); });
  auto still = index->Query("/doc/u1");
  ASSERT_TRUE(still.ok());
  EXPECT_EQ(*still, std::vector<uint64_t>{1});

  // The sequence entry points' own rejections, on an index without a
  // document store.
  auto plain = VistIndex::Create(dir_ + "/plain", VistOptions());
  ASSERT_TRUE(plain.ok());
  Sequence plain_seq = BuildSequence(*doc.root(), (*plain)->symbols());
  ASSERT_TRUE((*plain)->InsertSequence(plain_seq, 1).ok());
  ASSERT_TRUE((*plain)->Flush().ok());
  ExpectRejectedMutation(plain->get(), "empty-sequence insert", [&] {
    return (*plain)->InsertSequence(Sequence(), 2);
  });
  ExpectRejectedMutation(plain->get(), "bulk load into a non-empty index", [&] {
    return (*plain)->BulkLoadSequences({{3, plain_seq}});
  });

  auto paths = PathIndex::Create(dir_ + "/paths", index->symbols());
  ASSERT_TRUE(paths.ok());
  ExpectRejectedMutation(paths->get(), "AddRefinedPath of a malformed path",
                         [&] { return (*paths)->AddRefinedPath("/doc[u1"); });
  ASSERT_TRUE((*paths)->InsertSequence(seq, 1).ok());
  ASSERT_TRUE((*paths)->Flush().ok());
  ExpectRejectedMutation(
      paths->get(), "PathIndex delete of an absent document",
      [&] { return (*paths)->DeleteSequence(seq, 7); });

  auto nodes = NodeIndex::Create(dir_ + "/nodes", index->symbols());
  ASSERT_TRUE(nodes.ok());
  ASSERT_TRUE((*nodes)->InsertDocument(*doc.root(), 1).ok());
  ASSERT_TRUE((*nodes)->Flush().ok());
  ExpectRejectedMutation(
      nodes->get(), "NodeIndex delete of an absent document",
      [&] { return (*nodes)->DeleteDocument(*doc.root(), 7); });
}

// ---------------------------------------------------------------------------
// The oracle: cached == uncached at every epoch, for every engine.

// Queries `cache` twice (a fill pass and a must-hit pass) and the bare
// `direct` index once, expecting three identical answers.
void ExpectCachedEqualsDirect(CachingIndex* cache, QueryableIndex* direct,
                              const std::vector<std::string>& queries) {
  for (const std::string& q : queries) {
    auto direct_result = direct->Query(q);
    ASSERT_TRUE(direct_result.ok()) << q << ": " << direct_result.status().ToString();
    auto first = cache->Query(q);
    ASSERT_TRUE(first.ok()) << q;
    auto second = cache->Query(q);
    ASSERT_TRUE(second.ok()) << q;
    EXPECT_EQ(*first, *direct_result) << q;
    EXPECT_EQ(*second, *direct_result) << q << " (served from cache)";
  }
}

TEST_F(CachingIndexTest, OracleVistIndexAcrossMutationEpochs) {
  std::unique_ptr<VistIndex> index = MakeVist(/*store_documents=*/true);
  CachingIndex cache(index.get());
  const std::vector<std::string> queries = {
      "/doc/u1", "/doc/u2", "//leaf", "/doc/u1/leaf[text()='text1']",
      "/doc/u9",  // never matches
  };

  ExpectCachedEqualsDirect(&cache, index.get(), queries);  // empty index
  std::vector<xml::Document> docs;
  for (uint64_t id = 1; id <= 6; ++id) {
    docs.push_back(MustParse(UniqueDoc(id % 3 + 1)));
    ASSERT_TRUE(index->InsertDocument(*docs.back().root(), id).ok());
    ExpectCachedEqualsDirect(&cache, index.get(), queries);
  }
  ASSERT_TRUE(index->Flush().ok());
  ExpectCachedEqualsDirect(&cache, index.get(), queries);
  for (uint64_t id = 6; id >= 4; --id) {
    ASSERT_TRUE(index->DeleteDocument(*docs[id - 1].root(), id).ok());
    ExpectCachedEqualsDirect(&cache, index.get(), queries);
  }
  ASSERT_TRUE(cache.Flush().ok());  // Flush through the cache wrapper
  ExpectCachedEqualsDirect(&cache, index.get(), queries);
}

TEST_F(CachingIndexTest, OracleBaselinesAcrossMutationEpochs) {
  SymbolTable symtab;
  auto paths = PathIndex::Create(dir_ + "/paths", &symtab);
  ASSERT_TRUE(paths.ok());
  auto nodes = NodeIndex::Create(dir_ + "/nodes", &symtab);
  ASSERT_TRUE(nodes.ok());
  CachingIndex path_cache(paths->get());
  CachingIndex node_cache(nodes->get());
  const std::vector<std::string> queries = {"/doc/u1", "/doc/u2", "//leaf",
                                            "/doc/u9"};

  for (uint64_t id = 1; id <= 8; ++id) {
    xml::Document doc = MustParse(UniqueDoc(id % 3 + 1));
    Sequence seq = BuildSequence(*doc.root(), &symtab);
    ASSERT_TRUE((*paths)->InsertSequence(seq, id).ok());
    ASSERT_TRUE((*nodes)->InsertDocument(*doc.root(), id).ok());
    ExpectCachedEqualsDirect(&path_cache, paths->get(), queries);
    ExpectCachedEqualsDirect(&node_cache, nodes->get(), queries);
  }
  // Registering a refined path changes how its pattern is answered; the
  // epoch bump must invalidate the cached result for it.
  auto before = path_cache.Query("/doc/u1");
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE((*paths)->AddRefinedPath("/doc/u1").ok());
  ExpectCachedEqualsDirect(&path_cache, paths->get(), queries);
}

// ---------------------------------------------------------------------------
// The regression the oracle exists to catch: a missed epoch bump.

// Forwards everything to a real engine but reports a frozen epoch — the
// observable behavior of a mutating entry point that forgot to bump. The
// test may move the frozen value itself with set_epoch.
class FrozenEpochIndex : public QueryableIndex {
 public:
  explicit FrozenEpochIndex(QueryableIndex* inner) : inner_(inner) {}

  Result<std::vector<uint64_t>> Query(std::string_view path,
                                      const QueryOptions& options) override {
    return inner_->Query(path, options);
  }
  Result<std::shared_ptr<const QueryPlan>> Prepare(
      std::string_view path, const QueryOptions& options) override {
    return inner_->Prepare(path, options);
  }
  Result<std::vector<uint64_t>> QueryWithPlan(
      const QueryPlan& plan, const QueryOptions& options) override {
    return inner_->QueryWithPlan(plan, options);
  }
  Result<IndexStats> Stats() override { return inner_->Stats(); }
  Status Flush() override { return inner_->Flush(); }
  uint64_t epoch() const override { return epoch_; }

  void set_epoch(uint64_t epoch) { epoch_ = epoch; }

 private:
  QueryableIndex* inner_;
  uint64_t epoch_ = 0;
};

TEST_F(CachingIndexTest, MissedEpochBumpServesStaleResultsTheOracleCatches) {
  std::unique_ptr<VistIndex> index = MakeVist();
  FrozenEpochIndex frozen(index.get());
  CachingIndex cache(&frozen);

  xml::Document doc1 = MustParse(UniqueDoc(1));
  ASSERT_TRUE(index->InsertDocument(*doc1.root(), 1).ok());
  auto filled = cache.Query("/doc/u1");
  ASSERT_TRUE(filled.ok());
  EXPECT_EQ(filled->size(), 1u);

  // A second matching document arrives, but the frozen epoch hides it.
  xml::Document doc2 = MustParse(UniqueDoc(1));
  ASSERT_TRUE(index->InsertDocument(*doc2.root(), 2).ok());
  auto direct = index->Query("/doc/u1");
  ASSERT_TRUE(direct.ok());
  auto cached = cache.Query("/doc/u1");
  ASSERT_TRUE(cached.ok());
  EXPECT_NE(*cached, *direct)
      << "a frozen epoch must leave the cache stale; if these match, the "
         "regression harness lost its teeth and can no longer detect a "
         "missed epoch bump";
  EXPECT_EQ(cached->size(), 1u);
  EXPECT_EQ(direct->size(), 2u);

  // The same sequence against the real (bumping) index stays fresh.
  CachingIndex honest(index.get());
  auto honest_result = honest.Query("/doc/u1");
  ASSERT_TRUE(honest_result.ok());
  EXPECT_EQ(*honest_result, *direct);
}

// A reader that read epoch e1 before a mutation must not disturb a shard
// another reader has since filled at e1 + 1: its lookup misses and leaves
// the newer entries, and the shard's epoch, alone.
TEST_F(CachingIndexTest, LaggingReaderLeavesNewerEntriesCached) {
  std::unique_ptr<VistIndex> index = MakeVist();
  for (uint64_t id = 1; id <= 2; ++id) {
    xml::Document doc = MustParse(UniqueDoc(id));
    ASSERT_TRUE(index->InsertDocument(*doc.root(), id).ok());
  }
  FrozenEpochIndex clock(index.get());
  CachingIndexOptions one_shard;
  one_shard.shards = 1;
  CachingIndex cache(&clock, one_shard);
  obs::Counter& invalidated =
      obs::GetCounter("cache.result.invalidated_entries");

  clock.set_epoch(2);
  ASSERT_TRUE(cache.Query("/doc/u1").ok());  // fills the shard at epoch 2
  const uint64_t invalidated_before = invalidated.value();

  clock.set_epoch(1);  // a reader that read its epoch before the mutation
  obs::QueryProfile lagging;
  QueryOptions options;
  options.profile = &lagging;
  ASSERT_TRUE(cache.Query("/doc/u2", options).ok());
  EXPECT_FALSE(lagging.result_cache_hit);

  clock.set_epoch(2);
  obs::QueryProfile current;
  options.profile = &current;
  auto result = cache.Query("/doc/u1", options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, std::vector<uint64_t>{1});
  EXPECT_TRUE(current.result_cache_hit)
      << "the lagging lookup dropped entries of a newer epoch";
  EXPECT_EQ(invalidated.value(), invalidated_before);
}

// Forwards everything to a real engine, epoch() included, and counts the
// calls a cache makes into it.
class CountingIndex : public QueryableIndex {
 public:
  explicit CountingIndex(QueryableIndex* inner) : inner_(inner) {}

  Result<std::vector<uint64_t>> Query(std::string_view path,
                                      const QueryOptions& options) override {
    ++queries;
    return inner_->Query(path, options);
  }
  Result<std::shared_ptr<const QueryPlan>> Prepare(
      std::string_view path, const QueryOptions& options) override {
    ++prepares;
    return inner_->Prepare(path, options);
  }
  Result<std::vector<uint64_t>> QueryWithPlan(
      const QueryPlan& plan, const QueryOptions& options) override {
    ++executions;
    return inner_->QueryWithPlan(plan, options);
  }
  Result<IndexStats> Stats() override { return inner_->Stats(); }
  Status Flush() override { return inner_->Flush(); }
  uint64_t epoch() const override { return inner_->epoch(); }

  int queries = 0;
  int prepares = 0;
  int executions = 0;

 private:
  QueryableIndex* inner_;
};

// The call shape a miss makes into the wrapped index — Prepare, then
// QueryWithPlan, never Query — is what layered tracing decorators see.
TEST_F(CachingIndexTest, MissPreparesAndExecutesAndHitCallsNothing) {
  std::unique_ptr<VistIndex> index = MakeVist();
  CountingIndex counting(index.get());
  CachingIndex cache(&counting);
  xml::Document doc1 = MustParse(UniqueDoc(1));
  ASSERT_TRUE(index->InsertDocument(*doc1.root(), 1).ok());

  ASSERT_TRUE(cache.Query("/doc/u1").ok());
  EXPECT_EQ(counting.prepares, 1);
  EXPECT_EQ(counting.executions, 1);

  ASSERT_TRUE(cache.Query("/doc/u1").ok());
  EXPECT_EQ(counting.prepares, 1) << "a result hit calls nothing";
  EXPECT_EQ(counting.executions, 1) << "a result hit calls nothing";

  xml::Document doc2 = MustParse(UniqueDoc(2));
  ASSERT_TRUE(index->InsertDocument(*doc2.root(), 2).ok());
  ASSERT_TRUE(cache.Query("/doc/u1").ok());
  EXPECT_EQ(counting.prepares, 2) << "a miss after a mutation compiles";
  EXPECT_EQ(counting.executions, 2);
  EXPECT_EQ(counting.queries, 0);
}

// ---------------------------------------------------------------------------
// Profile stamping and cache behavior

TEST_F(CachingIndexTest, StampsResultHitFlag) {
  std::unique_ptr<VistIndex> index = MakeVist();
  CachingIndex cache(index.get());
  xml::Document doc = MustParse(UniqueDoc(1));
  ASSERT_TRUE(index->InsertDocument(*doc.root(), 1).ok());

  obs::QueryProfile cold;
  QueryOptions options;
  options.profile = &cold;
  ASSERT_TRUE(cache.Query("/doc/u1", options).ok());
  EXPECT_FALSE(cold.result_cache_hit);

  obs::QueryProfile hot;
  options.profile = &hot;
  ASSERT_TRUE(cache.Query("/doc/u1", options).ok());
  EXPECT_TRUE(hot.result_cache_hit);
  EXPECT_EQ(hot.index_nodes_accessed, 0u)
      << "a result hit must not touch storage";
  EXPECT_EQ(hot.verified_results, 1u);

  // A mutation invalidates the cached result.
  xml::Document doc2 = MustParse(UniqueDoc(2));
  ASSERT_TRUE(index->InsertDocument(*doc2.root(), 2).ok());
  obs::QueryProfile warm;
  options.profile = &warm;
  ASSERT_TRUE(cache.Query("/doc/u1", options).ok());
  EXPECT_FALSE(warm.result_cache_hit);

  // The Dump() surface carries the flags (docs/OBSERVABILITY.md).
  EXPECT_NE(hot.Dump().find("result_hit=1"), std::string::npos);
}

TEST_F(CachingIndexTest, OptionsFingerprintSeparatesCacheEntries) {
  std::unique_ptr<VistIndex> index = MakeVist(/*store_documents=*/true);
  CachingIndex cache(index.get());
  xml::Document doc = MustParse(UniqueDoc(1));
  ASSERT_TRUE(index->InsertDocument(*doc.root(), 1).ok());

  QueryOptions plain;
  ASSERT_TRUE(cache.Query("/doc/u1", plain).ok());
  // Same path, different options: must not be served the plain entry.
  obs::QueryProfile profile;
  QueryOptions verify;
  verify.verify = true;
  verify.profile = &profile;
  auto verified = cache.Query("/doc/u1", verify);
  ASSERT_TRUE(verified.ok());
  EXPECT_FALSE(profile.result_cache_hit);
  EXPECT_EQ(verified->size(), 1u);

  // ...but the profile sink itself is not part of the fingerprint.
  obs::QueryProfile profile2;
  QueryOptions verify2;
  verify2.verify = true;
  verify2.profile = &profile2;
  ASSERT_TRUE(cache.Query("/doc/u1", verify2).ok());
  EXPECT_TRUE(profile2.result_cache_hit);
}

TEST_F(CachingIndexTest, QueryRecompilesAfterNameAppears) {
  std::unique_ptr<VistIndex> index = MakeVist();
  CachingIndex cache(index.get());
  xml::Document doc = MustParse(UniqueDoc(1));
  ASSERT_TRUE(index->InsertDocument(*doc.root(), 1).ok());

  // "u7" was never interned: compilation proves emptiness, and that proof
  // must not outlive the insert that interns the name.
  auto empty = cache.Query("/doc/u7");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());

  xml::Document doc7 = MustParse(UniqueDoc(7));
  ASSERT_TRUE(index->InsertDocument(*doc7.root(), 7).ok());
  auto found = cache.Query("/doc/u7");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, std::vector<uint64_t>{7})
      << "the never-interned-name plan must not outlive the insert that "
         "interned the name";
}

TEST_F(CachingIndexTest, ResultTierEvictsByByteBudgetInLruOrder) {
  std::unique_ptr<VistIndex> index = MakeVist();
  CachingIndexOptions small;
  small.shards = 1;
  small.result_capacity_bytes = 1;  // clamped to the 256-byte shard floor
  CachingIndex cache(index.get(), small);
  for (uint64_t id = 1; id <= 4; ++id) {
    xml::Document doc = MustParse(UniqueDoc(id));
    ASSERT_TRUE(index->InsertDocument(*doc.root(), id).ok());
  }

  // Each entry is ~120 bytes, so a 256-byte shard holds two. Filling four
  // then re-reading the first must miss (it was least recently used).
  for (uint64_t id = 1; id <= 4; ++id) {
    ASSERT_TRUE(cache.Query("/doc/u" + std::to_string(id)).ok());
  }
  obs::QueryProfile profile;
  QueryOptions options;
  options.profile = &profile;
  ASSERT_TRUE(cache.Query("/doc/u1", options).ok());
  EXPECT_FALSE(profile.result_cache_hit);
  // The most recent entry is still resident.
  obs::QueryProfile recent;
  options.profile = &recent;
  ASSERT_TRUE(cache.Query("/doc/u1", options).ok());
  EXPECT_TRUE(recent.result_cache_hit);
}

TEST_F(CachingIndexTest, RejectsPlansFromAnotherEngine) {
  std::unique_ptr<VistIndex> index = MakeVist();
  SymbolTable symtab;
  auto nodes = NodeIndex::Create(dir_ + "/nodes", &symtab);
  ASSERT_TRUE(nodes.ok());

  auto vist_plan = index->Prepare("/doc/u1");
  ASSERT_TRUE(vist_plan.ok());
  auto mismatch = (*nodes)->QueryWithPlan(**vist_plan);
  EXPECT_FALSE(mismatch.ok());
  EXPECT_TRUE(mismatch.status().IsInvalidArgument())
      << mismatch.status().ToString();

  // Through the cache wrapper the same rejection must propagate (and not
  // poison the cache with an error's empty result).
  CachingIndex node_cache(nodes->get());
  auto through_cache = node_cache.QueryWithPlan(**vist_plan);
  EXPECT_FALSE(through_cache.ok());
}

TEST_F(CachingIndexTest, StatsAndEpochDelegateToWrapped) {
  std::unique_ptr<VistIndex> index = MakeVist();
  CachingIndex cache(index.get());
  xml::Document doc = MustParse(UniqueDoc(1));
  ASSERT_TRUE(index->InsertDocument(*doc.root(), 1).ok());

  EXPECT_EQ(cache.epoch(), index->epoch());
  auto direct = index->Stats();
  auto wrapped = cache.Stats();
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(wrapped.ok());
  EXPECT_EQ(wrapped->num_documents, direct->num_documents);
  EXPECT_EQ(wrapped->size_bytes, direct->size_bytes);
  EXPECT_EQ(cache.wrapped(), index.get());
}

TEST_F(CachingIndexTest, ClearDropsEntriesWithoutAffectingCorrectness) {
  std::unique_ptr<VistIndex> index = MakeVist();
  CachingIndex cache(index.get());
  xml::Document doc = MustParse(UniqueDoc(1));
  ASSERT_TRUE(index->InsertDocument(*doc.root(), 1).ok());
  ASSERT_TRUE(cache.Query("/doc/u1").ok());

  cache.Clear();
  obs::QueryProfile profile;
  QueryOptions options;
  options.profile = &profile;
  auto after = cache.Query("/doc/u1", options);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(profile.result_cache_hit);
  EXPECT_EQ(after->size(), 1u);
}

}  // namespace
}  // namespace exec
}  // namespace vist
