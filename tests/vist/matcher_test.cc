// Direct matcher tests: work counters, the Figure-10 measurement mode,
// deadlines that expire mid-search, and resilience to on-disk corruption
// (a damaged index must surface Status::Corruption, never crash or return
// wrong data silently).

#include "vist/matcher.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "common/deadline.h"
#include "common/random.h"
#include "query/query_sequence.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"
#include "storage/version.h"
#include "vist/manifest.h"
#include "vist/vist_index.h"
#include "xml/parser.h"

namespace vist {
namespace {

class MatcherTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("vist_matcher_test_" + std::to_string(getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    auto index = VistIndex::Create(dir_.string(), VistOptions());
    ASSERT_TRUE(index.ok());
    index_ = std::move(index).value();
    for (int i = 0; i < 50; ++i) {
      auto doc = xml::Parse(
          "<P><S><L>city" + std::to_string(i % 5) + "</L></S></P>");
      ASSERT_TRUE(doc.ok());
      ASSERT_TRUE(index_->InsertDocument(*doc->root(), i + 1).ok());
    }
  }
  void TearDown() override {
    index_.reset();
    std::filesystem::remove_all(dir_);
  }

  std::filesystem::path dir_;
  std::unique_ptr<VistIndex> index_;
};

TEST_F(MatcherTest, ProfileReportsWork) {
  auto compiled = query::CompilePath("/P/S/L", *index_->symbols());
  ASSERT_TRUE(compiled.ok());
  obs::QueryProfile profile;
  auto ids = index_->QueryCompiled(*compiled, &profile);
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(ids->size(), 50u);
  EXPECT_GT(profile.entries_scanned, 0u);
  EXPECT_GT(profile.nodes_matched, 0u);
  EXPECT_GT(profile.docid_range_scans, 0u);
  EXPECT_GT(profile.index_nodes_accessed, 0u);
  EXPECT_EQ(profile.candidates, 50u);
  EXPECT_EQ(profile.verified_results, 50u);  // unverified: equal by convention
  EXPECT_FALSE(profile.verified);
}

TEST_F(MatcherTest, SkippingDocIdCollectionStillMatches) {
  auto compiled = query::CompilePath("/P/S/L", *index_->symbols());
  ASSERT_TRUE(compiled.ok());
  obs::QueryProfile with, without;
  auto full = index_->QueryCompiled(*compiled, &with);
  auto matched_only = index_->QueryCompiled(*compiled, &without,
                                            /*collect_doc_ids=*/false);
  ASSERT_TRUE(full.ok() && matched_only.ok());
  EXPECT_FALSE(full->empty());
  EXPECT_TRUE(matched_only->empty());
  EXPECT_EQ(with.nodes_matched, without.nodes_matched);
  EXPECT_GT(with.docid_range_scans, 0u);
  EXPECT_EQ(without.docid_range_scans, 0u);
}

TEST_F(MatcherTest, WildcardDepthExpansionBounded) {
  // '//L' scans one depth bucket per possible prefix length 0..max depth,
  // bounded by the index's max depth, not by kMaxPrefixDepth. The value
  // nodes under L make that depth 3 (prefix P/S/L), so 4 range scans.
  auto compiled = query::CompilePath("//L", *index_->symbols());
  ASSERT_TRUE(compiled.ok());
  obs::QueryProfile profile;
  auto ids = index_->QueryCompiled(*compiled, &profile);
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(ids->size(), 50u);
  auto stats = index_->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->max_depth, 3u);
  EXPECT_EQ(profile.range_scans, stats->max_depth + 1);
}

TEST_F(MatcherTest, CorruptedIndexSurfacesCorruptionStatus) {
  ASSERT_TRUE(index_->Flush().ok());
  index_.reset();
  // Flip a swath of bytes in the middle of the page file.
  const std::string file = (dir_ / "index.db").string();
  {
    std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(3 * 4096 + 100);
    std::string garbage(600, '\xCD');
    f.write(garbage.data(), garbage.size());
  }
  auto reopened = VistIndex::Open(dir_.string(), VistOptions());
  if (!reopened.ok()) return;  // rejected at open: fine
  for (const char* q : {"/P/S/L", "//L", "/P"}) {
    auto compiled = query::CompilePath(q, *(*reopened)->symbols());
    if (!compiled.ok()) continue;
    auto ids = (*reopened)->QueryCompiled(*compiled);
    // Either a clean answer from undamaged pages or a Corruption error —
    // never a crash.
    if (!ids.ok()) {
      EXPECT_TRUE(ids.status().IsCorruption() ||
                  ids.status().IsInvalidArgument() ||
                  ids.status().IsIOError())
          << ids.status().ToString();
    }
  }
}

// Builds an index over `xmls` (doc ids 1, 2, ...) under a fresh directory,
// runs `path` twice and returns the first profile; the answer must be
// `expected`, and the second run must report the same page-access count.
obs::QueryProfile ProfileDocuments(const std::vector<std::string>& xmls,
                                   const std::string& path,
                                   const std::vector<uint64_t>& expected) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("vist_matcher_profile_" + std::to_string(getpid()));
  std::filesystem::remove_all(dir);
  obs::QueryProfile first, second;
  [&] {
    auto index = VistIndex::Create(dir.string(), VistOptions());
    ASSERT_TRUE(index.ok());
    for (size_t i = 0; i < xmls.size(); ++i) {
      auto doc = xml::Parse(xmls[i]);
      ASSERT_TRUE(doc.ok());
      ASSERT_TRUE((*index)->InsertDocument(*doc->root(), i + 1).ok());
    }
    auto compiled = query::CompilePath(path, *(*index)->symbols());
    ASSERT_TRUE(compiled.ok());
    auto ids = (*index)->QueryCompiled(*compiled, &first);
    ASSERT_TRUE(ids.ok());
    EXPECT_EQ(*ids, expected) << path;
    // Deterministic: a repeat run reports identical numbers.
    ASSERT_TRUE((*index)->QueryCompiled(*compiled, &second).ok());
    EXPECT_EQ(second.index_nodes_accessed, first.index_nodes_accessed);
  }();
  std::filesystem::remove_all(dir);
  return first;
}

obs::QueryProfile ProfileOneDocument(const std::string& xml,
                                     const std::string& path) {
  return ProfileDocuments({xml}, path, {1});
}

// Minimal deterministic workloads: one document, one query, both trees a
// single page deep, so the page-access count of Algorithm 2 is an exact,
// stable number rather than a lower bound. Over single-page trees a
// cursor's first seek costs exactly 1 page access: the descent pins the
// page and reads cells in place (no second leaf fetch); the cursor's later
// seeks stay in the page it keeps pinned. Each cursor below seeks once. Guards
// the ProfileScope delta accounting: any change here means the per-query
// index_nodes_accessed column in the benchmarks shifted too.
TEST(MatcherProfileTest, ExactIndexNodeAccessCounts) {
  // '/a/b' is a leading chain a -> b ending in the concrete D-key (b, a).
  // One seek goes straight to that group's S-Ancestor range and matches
  // 'b'; 'a' is bound from b's prefix, with no seek and no matched node.
  // One DocId range seek follows: 2 seeks x 1 page = 2 accesses.
  const obs::QueryProfile profile = ProfileOneDocument("<a><b/></a>", "/a/b");
  EXPECT_EQ(profile.index_nodes_accessed, 2u);
  EXPECT_EQ(profile.range_scans, 1u);
  EXPECT_EQ(profile.nodes_matched, 1u);
  EXPECT_EQ(profile.docid_range_scans, 1u);
  EXPECT_EQ(profile.candidates, 1u);
}

TEST(MatcherProfileTest, DirectSeekAfterTheChain) {
  // '/a[b]/c' compiles to a, b, c with both b and c children of a. The
  // chain a -> b ends at (b, a): 1 seek, and 'a' is bound from the prefix.
  // 'c' then instantiates to the concrete D-key (c, a) and seeks straight
  // into b's scope: 1 seek. Plus one DocId range seek: 3 accesses, 2 range
  // scans, 2 matched nodes (b and c).
  const obs::QueryProfile profile =
      ProfileOneDocument("<a><b/><c/></a>", "/a[b]/c");
  EXPECT_EQ(profile.index_nodes_accessed, 3u);
  EXPECT_EQ(profile.range_scans, 2u);
  EXPECT_EQ(profile.nodes_matched, 2u);
  EXPECT_EQ(profile.docid_range_scans, 1u);
}

// Q5's shape over books with two authors and a key each. The query
// compiles to book, author, key, key's value, and its leading chain ends
// at author, which binds the shared first-author node (its scope holds
// every book's key) and each book's second author. Book 38 matches twice,
// once under each of its authors, so 2 DocId range scans.
//
// Without anchors every author binding opens a key scan, and every key
// bound a value scan: 1 + 1 + kBooks + 2 * kBooks = 122 range scans and
// (kBooks + 1) + 2 * kBooks + 2 = 123 matched nodes.
//
// With anchors: the author scan, the key scan under the first author and
// the value scans under keys 0 and 1 earn the 4 credits of the anchor
// seek (range scan 5). The value scans under keys 2 and 3 pay for the
// anchor entry and the end of its group. From then on only bindings whose
// scope holds book 38's key value descend, and each scan stops at it:
// key 37's value scan, then the second author's key and value scans. That
// is 10 range scans and 10 matched nodes (2 authors, 6 keys, the value
// twice).
//
// Page accesses: the four entry cursors (author, key, value, anchor) each
// descend once through the two-level entry tree, root and leaf: 8. Later
// seeks re-route below the root each cursor keeps pinned: the value
// cursor's move to the leaf holding the later values loads 1 page, and
// every other seek lands in a leaf already pinned. The one-page DocId
// tree costs 1 for both DocId scans, the second reading on from the
// first. 10 in all.
constexpr int kBooks = 40;

std::vector<std::string> Books() {
  std::vector<std::string> books;
  for (int i = 0; i < kBooks; ++i) {
    const std::string id = std::to_string(i);
    books.push_back("<book><author>a" + id + "</author><author>b" + id +
                    "</author><key>k" + id + "</key><year>1999</year></book>");
  }
  return books;
}

TEST(MatcherProfileTest, AnchorsPruneBindingsThatCannotReachTheLastValue) {
  const obs::QueryProfile profile =
      ProfileDocuments(Books(), "/book[key='k37']/author", {38});
  EXPECT_EQ(profile.range_scans, 10u);
  EXPECT_EQ(profile.nodes_matched, 10u);
  EXPECT_EQ(profile.index_nodes_accessed, 10u);
  EXPECT_EQ(profile.docid_range_scans, 2u);
}

TEST(MatcherProfileTest, SelectiveChainEndCollectsNoAnchors) {
  // The chain book -> key -> 'k37' ends at a value bound once; year and its
  // common value then seek inside its scope. 3 range scans earn 3 credits,
  // fewer than an anchor seek costs, so the counts are those of a search
  // without anchors: 3 range scans and 3 matched nodes (k37, year, 1999).
  // Each element's cursor seeks once, 2 page accesses in the two-level
  // entry tree, plus 1 for the DocId seek.
  const obs::QueryProfile profile = ProfileDocuments(
      Books(), "/book[key='k37']/year[text()='1999']", {38});
  EXPECT_EQ(profile.range_scans, 3u);
  EXPECT_EQ(profile.nodes_matched, 3u);
  EXPECT_EQ(profile.index_nodes_accessed, 7u);
  EXPECT_EQ(profile.docid_range_scans, 1u);
}

// N bindings of the last element in one D-key group: each document puts
// its own value before `d`, so every `d` is a distinct trie node with the
// D-key (d, a), and the group's bindings arrive in label order with
// disjoint scopes. One DocId cursor reads on from one scope to the next,
// so the DocId tree costs no more than the leaves touched plus the tree
// height. `/a` measures the first term: its one binding's scope holds
// every document, and its single range scan reads every leaf plus the
// levels above the first one (height - 1). A root-to-leaf descent per
// binding would cost 2N here.
TEST(MatcherProfileTest, OneDocIdCursorServesAGroupsBindings) {
  constexpr uint64_t kDocs = 400;
  const auto dir = std::filesystem::temp_directory_path() /
                   ("vist_matcher_docid_" + std::to_string(getpid()));
  std::filesystem::remove_all(dir);
  auto index = VistIndex::Create(dir.string(), VistOptions());
  ASSERT_TRUE(index.ok());
  std::vector<uint64_t> all;
  for (uint64_t i = 1; i <= kDocs; ++i) {
    auto doc = xml::Parse("<a><c>v" + std::to_string(i) + "</c><d/></a>");
    ASSERT_TRUE(doc.ok());
    ASSERT_TRUE((*index)->InsertDocument(*doc->root(), i).ok());
    all.push_back(i);
  }
  // Page accesses spent on the DocId tree: the run minus the same run
  // without DocId collection.
  auto docid_accesses = [&](const char* path, uint64_t bindings) {
    auto compiled = query::CompilePath(path, *(*index)->symbols());
    EXPECT_TRUE(compiled.ok());
    obs::QueryProfile with, without;
    auto ids = (*index)->QueryCompiled(*compiled, &with);
    EXPECT_TRUE(ids.ok());
    EXPECT_EQ(*ids, all) << path;
    EXPECT_EQ(with.docid_range_scans, bindings) << path;
    EXPECT_TRUE((*index)
                    ->QueryCompiled(*compiled, &without,
                                    /*collect_doc_ids=*/false)
                    .ok());
    return with.index_nodes_accessed - without.index_nodes_accessed;
  };
  const uint64_t one_scan = docid_accesses("/a", 1);
  const uint64_t per_binding = docid_accesses("/a/d", kDocs);
  EXPECT_GE(one_scan, 2u) << "the DocId tree should have two levels";
  EXPECT_LE(per_binding, one_scan + 1);
  index->reset();
  std::filesystem::remove_all(dir);
}

// A ViST index opened below VistIndex: the test owns the buffer pool, to
// check it for leaked pins, and hands the matcher a DeadlineChecker of its
// own.
class DeadlineInsideCollectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("vist_matcher_deadline_" + std::to_string(getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    entry_.reset();
    docid_.reset();
    version_.reset();
    versions_.reset();
    pool_.reset();
    pager_.reset();
    std::filesystem::remove_all(dir_);
  }

  // Indexes `xmls` (doc ids 1, 2, ...), compiles `path`, and reopens the
  // page file with a stack of the test's own.
  void Build(const std::vector<std::string>& xmls, const std::string& path) {
    {
      auto index = VistIndex::Create(dir_.string(), VistOptions());
      ASSERT_TRUE(index.ok());
      for (size_t i = 0; i < xmls.size(); ++i) {
        auto doc = xml::Parse(xmls[i]);
        ASSERT_TRUE(doc.ok());
        ASSERT_TRUE((*index)->InsertDocument(*doc->root(), i + 1).ok());
      }
      auto compiled = query::CompilePath(path, *(*index)->symbols());
      ASSERT_TRUE(compiled.ok());
      compiled_ = std::move(compiled).value();
      ASSERT_TRUE((*index)->Flush().ok());
    }
    PagerOptions options;
    options.create = false;
    auto pager = Pager::Open((dir_ / "index.db").string(), options);
    ASSERT_TRUE(pager.ok()) << pager.status().ToString();
    pager_ = std::move(pager).value();
    pool_ = std::make_unique<BufferPool>(pager_.get(), 256);
    versions_ = std::make_unique<VersionManager>(pager_.get(), pool_.get());
    versions_->Bootstrap();
    auto entry = BTree::Open(pager_.get(), pool_.get(), versions_.get(),
                             kEntryTreeSlot);
    auto docid = BTree::Open(pager_.get(), pool_.get(), versions_.get(),
                             kDocIdTreeSlot);
    ASSERT_TRUE(entry.ok() && docid.ok());
    entry_ = std::move(entry).value();
    docid_ = std::move(docid).value();
    version_ = versions_->Pin();
  }

  Result<std::vector<uint64_t>> Match(DeadlineChecker* checker,
                                      obs::QueryProfile* profile) {
    MatchContext context{entry_->ViewAt(*version_), docid_->ViewAt(*version_),
                         version_->slots[kMaxDepthSlot],
                         /*collect_doc_ids=*/true, checker};
    return MatchCompiledQuery(context, compiled_, profile);
  }

  // Runs the query with expiry at its k-th checkpoint for k = 1, 2, ...
  // until a run completes, which must give `expected`. Every run before it
  // must fail with DeadlineExceeded, touch no page after the expiring
  // checkpoint (each page load is preceded by a check, so fewer than k
  // loads), and leave no frame pinned. Returns each failed run's profile,
  // the k-th at index k - 1.
  std::vector<obs::QueryProfile> SweepExpiry(
      const std::vector<uint64_t>& expected) {
    std::vector<obs::QueryProfile> failed;
    for (uint32_t k = 1; k < 100000; ++k) {
      DeadlineChecker checker = DeadlineChecker::ExpiringAtCheckForTesting(k);
      obs::QueryProfile profile;
      auto ids = Match(&checker, &profile);
      EXPECT_EQ(pool_->pinned_frames(), 0u) << "k=" << k;
      if (ids.ok()) {
        EXPECT_EQ(*ids, expected);
        return failed;
      }
      EXPECT_TRUE(ids.status().IsDeadlineExceeded())
          << "k=" << k << ": " << ids.status().ToString();
      EXPECT_LT(profile.index_nodes_accessed, k) << "k=" << k;
      failed.push_back(profile);
      if (::testing::Test::HasFailure()) break;
    }
    ADD_FAILURE() << "no run completed";
    return failed;
  }

  std::filesystem::path dir_;
  query::CompiledQuery compiled_;
  std::unique_ptr<Pager> pager_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<VersionManager> versions_;
  std::unique_ptr<BTree> entry_;
  std::unique_ptr<BTree> docid_;
  std::shared_ptr<const Version> version_;
};

// Q1's shape: '/a/b' binds one `b` whose scope holds every document, so
// almost every checkpoint of the search lies in its DocId collection,
// which spans several DocId leaves. The first check after the DocId range
// scan is counted is the DocId cursor's first page load; from there on,
// each DocId entry's checkpoint is the expiring one in one run.
TEST_F(DeadlineInsideCollectionTest, ExpiryInsideDocIdCollection) {
  constexpr uint64_t kDocs = 400;
  std::vector<uint64_t> all;
  for (uint64_t i = 1; i <= kDocs; ++i) all.push_back(i);
  Build(std::vector<std::string>(kDocs, "<a><b/></a>"), "/a/b");
  const std::vector<obs::QueryProfile> failed = SweepExpiry(all);
  uint64_t inside = 0;
  for (const obs::QueryProfile& profile : failed) {
    if (profile.docid_range_scans == 1) ++inside;
  }
  EXPECT_GE(inside, kDocs);
}

// The anchor case of AnchorsPruneBindingsThatCannotReachTheLastValue: the
// search's fourth range scan pays for the anchor seek, which is counted as
// the fifth with no checkpoint between the two. The next checkpoint is the
// anchor cursor's first page load. So the one run whose profile shows two
// more range scans than the run before expired there, inside anchor
// collection; later runs expire at its entries too.
TEST_F(DeadlineInsideCollectionTest, ExpiryInsideAnchorCollection) {
  Build(Books(), "/book[key='k37']/author");
  const std::vector<obs::QueryProfile> failed = SweepExpiry({38});
  int anchor_seeks = 0;
  for (size_t i = 1; i < failed.size(); ++i) {
    if (failed[i].range_scans == failed[i - 1].range_scans + 2) {
      ++anchor_seeks;
      EXPECT_EQ(failed[i].range_scans, 5u);
    }
  }
  EXPECT_EQ(anchor_seeks, 1);
}

TEST_F(MatcherTest, EmptyAlternativesMatchNothing) {
  query::CompiledQuery empty;
  auto ids = index_->QueryCompiled(empty);
  ASSERT_TRUE(ids.ok());
  EXPECT_TRUE(ids->empty());
}

}  // namespace
}  // namespace vist
