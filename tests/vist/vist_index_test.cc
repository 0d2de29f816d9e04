#include "vist/vist_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "common/fault_injection_env.h"
#include "obs/metrics.h"
#include "xml/parser.h"

namespace vist {
namespace {

class VistIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("vist_index_test_" + std::to_string(getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    index_.reset();
    std::filesystem::remove_all(dir_);
  }

  void CreateIndex(VistOptions options = {}) {
    auto index = VistIndex::Create(dir_.string(), options);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    index_ = std::move(index).value();
  }

  void ReopenIndex() {
    index_.reset();
    auto index = VistIndex::Open(dir_.string(), VistOptions());
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    index_ = std::move(index).value();
  }

  void Insert(uint64_t id, const char* xml_text) {
    auto doc = xml::Parse(xml_text);
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    ASSERT_TRUE(index_->InsertDocument(*doc->root(), id).ok());
  }

  std::vector<uint64_t> Run(const char* path, QueryOptions options = {}) {
    auto ids = index_->Query(path, options);
    EXPECT_TRUE(ids.ok()) << path << ": " << ids.status().ToString();
    return ids.ok() ? std::move(ids).value() : std::vector<uint64_t>{};
  }

  std::filesystem::path dir_;
  FaultInjectionEnv fault_env_;  // outlives index_, which may write through it
  std::unique_ptr<VistIndex> index_;
};

TEST_F(VistIndexTest, PaperFigure9InsertionScenario) {
  CreateIndex();
  // Doc1 and Doc2 of §3.4.2's worked example.
  Insert(1, "<P><S><N>v1</N><L>v2</L></S></P>");
  Insert(2, "<P><S><L>v2</L></S></P>");
  EXPECT_EQ(Run("/P/S/L[text()='v2']"), (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(Run("/P/S/N[text()='v1']"), (std::vector<uint64_t>{1}));
  EXPECT_EQ(Run("/P/S"), (std::vector<uint64_t>{1, 2}));
  auto stats = index_->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->num_documents, 2u);
  // Under lexicographic normalization Doc1 is P,S,L,v2,N,v1 and Doc2
  // (P,S,L,v2) is a full prefix of it, so the trie has exactly 6 nodes.
  // (The paper's Fig. 5 counts 9 because its DTD order puts N before L.)
  EXPECT_EQ(stats->num_entries, 6u);
}

TEST_F(VistIndexTest, PaperFigure2Queries) {
  CreateIndex();
  Insert(1,
         "<P><S><N>dell</N><I><M>ibm</M></I><L>boston</L></S>"
         "<B><L>newyork</L></B></P>");
  Insert(2,
         "<P><S><N>hp</N><I><M>intel</M></I><L>chicago</L></S>"
         "<B><L>boston</L></B></P>");
  Insert(3,
         "<P><S><N>acme</N><I><I><M>intel</M></I></I><L>boston</L></S>"
         "<B><L>seattle</L></B></P>");
  EXPECT_EQ(Run("/P/S/I/M"), (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(Run("/P[S[L='boston']]/B[L='newyork']"),
            (std::vector<uint64_t>{1}));
  EXPECT_EQ(Run("/P/*[L='boston']"), (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_EQ(Run("/P//I[M='intel']"), (std::vector<uint64_t>{2, 3}));
  EXPECT_TRUE(Run("/P/S/I[M='amd']").empty());
  EXPECT_TRUE(Run("/P/unknown_element").empty());
}

TEST_F(VistIndexTest, PersistsAcrossReopen) {
  CreateIndex();
  Insert(1, "<a><b c=\"1\">x</b></a>");
  Insert(2, "<a><b c=\"2\">y</b></a>");
  ASSERT_TRUE(index_->Flush().ok());
  ReopenIndex();
  EXPECT_EQ(Run("/a/b"), (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(Run("/a/b/c[.='2']"), (std::vector<uint64_t>{2}));
  // Dynamic insertion continues after reopen.
  Insert(3, "<a><b c=\"3\">z</b></a>");
  EXPECT_EQ(Run("/a/b"), (std::vector<uint64_t>{1, 2, 3}));
}

TEST_F(VistIndexTest, DeleteRemovesDocumentAndSharedNodesSurvive) {
  CreateIndex();
  Insert(1, "<a><b/><c/></a>");
  Insert(2, "<a><b/></a>");
  auto doc1 = xml::Parse("<a><b/><c/></a>");
  ASSERT_TRUE(index_->DeleteDocument(*doc1->root(), 1).ok());
  EXPECT_EQ(Run("/a/b"), (std::vector<uint64_t>{2}));
  EXPECT_TRUE(Run("/a/c").empty());
  auto stats = index_->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->num_documents, 1u);
  // The c node is garbage-collected; a and b remain.
  EXPECT_EQ(stats->num_entries, 2u);
}

TEST_F(VistIndexTest, DeleteOfAbsentDocumentIsNotFound) {
  CreateIndex();
  Insert(1, "<a><b/></a>");
  auto other = xml::Parse("<a><c/></a>");
  EXPECT_TRUE(index_->DeleteDocument(*other->root(), 1).IsNotFound());
  auto same_shape = xml::Parse("<a><b/></a>");
  EXPECT_TRUE(index_->DeleteDocument(*same_shape->root(), 99).IsNotFound());
  // Document 1 unaffected by the failed attempts.
  EXPECT_EQ(Run("/a/b"), (std::vector<uint64_t>{1}));
}

// Regression: a commit used to return the status of the page reclaim that
// runs after the new version is installed. A write fault while freeing
// the retired pages then failed an insert that readers could already see,
// and a client retrying it would insert the document twice. The contract:
// an error means the document is not visible, OK means it is.
TEST_F(VistIndexTest, FailedReclaimAfterInstallDoesNotFailTheInsert) {
  VistOptions options;
  options.env = &fault_env_;
  CreateIndex(options);
  auto text = [](uint64_t id) {
    return "<r><k>v" + std::to_string(id) + "</k></r>";
  };
  auto visible = [&](uint64_t id) {
    const std::string path = "/r/k[text()='v" + std::to_string(id) + "']";
    return Run(path.c_str()) == std::vector<uint64_t>{id};
  };
  // While a snapshot is pinned every page the inserts retire stays in
  // limbo; the Flush after its release frees them all, so the freelist
  // can feed the faulted inserts below without growing the file.
  {
    auto pin = index_->GetSnapshot();
    ASSERT_TRUE(pin.ok());
    for (uint64_t id = 1; id <= 30; ++id) Insert(id, text(id).c_str());
  }
  ASSERT_TRUE(index_->Flush().ok());
  // A few inserts open the next journal batch (its header is a write), so
  // a faulted insert allocates without writing and its first write is the
  // reclaim after the install.
  for (uint64_t id = 31; id <= 33; ++id) Insert(id, text(id).c_str());

  obs::Counter& deferred = obs::GetCounter("storage.mvcc.reclaim_deferred");
  const uint64_t deferred_before = deferred.value();
  std::vector<uint64_t> published;
  for (uint64_t id = 34; id <= 37; ++id) {
    auto doc = xml::Parse(text(id));
    ASSERT_TRUE(doc.ok());
    fault_env_.InjectWriteFaults(-1);
    Status s = index_->InsertDocument(*doc->root(), id);
    fault_env_.InjectWriteFaults(0);
    EXPECT_EQ(visible(id), s.ok()) << "document " << id << ": "
                                   << s.ToString();
    if (s.ok()) published.push_back(id);
  }
  EXPECT_GT(deferred.value(), deferred_before)
      << "no insert reached the reclaim after its install";

  // Faults cleared: Flush retries the deferred reclaim, and the index is
  // intact.
  ASSERT_TRUE(index_->Flush().ok());
  auto report = index_->CheckIntegrity();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok()) << report->problems.front();
  for (uint64_t id : published) EXPECT_TRUE(visible(id)) << id;
  auto stats = index_->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->num_documents, 33 + published.size());
}

TEST_F(VistIndexTest, InsertDeleteInsertRoundTrip) {
  CreateIndex();
  auto doc = xml::Parse("<x><y z=\"9\"/></x>");
  ASSERT_TRUE(doc.ok());
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(index_->InsertDocument(*doc->root(), 5).ok());
    EXPECT_EQ(Run("/x/y[@z='9']"), (std::vector<uint64_t>{5}));
    ASSERT_TRUE(index_->DeleteDocument(*doc->root(), 5).ok());
    EXPECT_TRUE(Run("/x/y").empty());
  }
}

TEST_F(VistIndexTest, ScopeUnderflowOnDeepDocuments) {
  VistOptions options;
  options.lambda = 256;  // shrink scopes fast: underflow within ~8 levels
  CreateIndex(options);
  // A 40-deep chain must trigger the sequential-labeling fallback.
  std::string xml_text, closing;
  for (int i = 0; i < 40; ++i) {
    xml_text += "<d" + std::to_string(i) + ">";
    closing = "</d" + std::to_string(i) + ">" + closing;
  }
  xml_text += "leaf_value" + closing;
  Insert(1, xml_text.c_str());
  auto stats = index_->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->underflow_runs, 0u);
  // The document is still fully queryable.
  EXPECT_EQ(Run("/d0/d1/d2/d3"), (std::vector<uint64_t>{1}));
  EXPECT_EQ(Run("//d39[text()='leaf_value']"), (std::vector<uint64_t>{1}));
  EXPECT_EQ(Run("//d20//d39"), (std::vector<uint64_t>{1}));
  // A second, shallower document still works alongside.
  Insert(2, "<d0><d1/></d0>");
  EXPECT_EQ(Run("/d0/d1"), (std::vector<uint64_t>{1, 2}));
}

TEST_F(VistIndexTest, DocumentStoreRoundTrip) {
  VistOptions options;
  options.store_documents = true;
  CreateIndex(options);
  Insert(7, "<a><b>hello</b></a>");
  auto text = index_->GetDocument(7);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  auto reparsed = xml::Parse(*text);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->root()->name(), "a");
  EXPECT_TRUE(index_->GetDocument(8).status().IsNotFound());
}

TEST_F(VistIndexTest, LargeDocumentChunksInStore) {
  VistOptions options;
  options.store_documents = true;
  CreateIndex(options);
  // A document much larger than one page cell.
  std::string xml_text = "<r>";
  for (int i = 0; i < 500; ++i) {
    xml_text += "<item id=\"" + std::to_string(i) + "\">padding text for bulk</item>";
  }
  xml_text += "</r>";
  Insert(1, xml_text.c_str());
  auto text = index_->GetDocument(1);
  ASSERT_TRUE(text.ok());
  EXPECT_GT(text->size(), 10000u);
  auto reparsed = xml::Parse(*text);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->root()->num_children(), 500u);
}

TEST_F(VistIndexTest, VerifiedQueryRemovesFalsePositives) {
  VistOptions options;
  options.store_documents = true;
  CreateIndex(options);
  // Doc 1: both conditions under the SAME seller. Doc 2: split across two
  // same-named sellers — a sequence-matching false positive.
  Insert(1, "<P><S><L>boston</L><N>dell</N></S></P>");
  Insert(2, "<P><S><L>boston</L></S><S><N>dell</N></S></P>");

  // Faithful paper behaviour: both match.
  EXPECT_EQ(Run("/P/S[L='boston'][N='dell']"), (std::vector<uint64_t>{1, 2}));
  // Verified: only the true embedding survives.
  QueryOptions verify;
  verify.verify = true;
  EXPECT_EQ(Run("/P/S[L='boston'][N='dell']", verify),
            (std::vector<uint64_t>{1}));
}

TEST_F(VistIndexTest, VerifyWithoutDocStoreFails) {
  CreateIndex();
  Insert(1, "<a><b/></a>");
  QueryOptions verify;
  verify.verify = true;
  auto result = index_->Query("/a/b", verify);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST_F(VistIndexTest, StatisticalAllocatorEndToEnd) {
  // Sample stats from representative documents, then index with clues.
  SymbolTable sampling_symtab;
  SchemaStats stats;
  for (const char* sample :
       {"<P><S><N>a</N></S></P>", "<P><S><N>b</N><L>x</L></S></P>"}) {
    auto doc = xml::Parse(sample);
    ASSERT_TRUE(doc.ok());
    stats.CollectFrom(BuildSequence(*doc->root(), &sampling_symtab));
  }
  VistOptions options;
  options.allocator = VistOptions::AllocatorKind::kStatistical;
  options.lambda = 12;
  options.stats = &stats;
  CreateIndex(options);
  // NOTE: symbols interned during sampling must match the index's own
  // interning order; insert the same vocabulary in the same order.
  Insert(1, "<P><S><N>a</N></S></P>");
  Insert(2, "<P><S><N>b</N><L>x</L></S></P>");
  Insert(3, "<P><S><L>y</L></S></P>");
  EXPECT_EQ(Run("/P/S/N"), (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(Run("/P/S/L[text()='y']"), (std::vector<uint64_t>{3}));
  ASSERT_TRUE(index_->Flush().ok());
  ReopenIndex();  // with a default VistOptions: λ comes from index.db
  EXPECT_EQ(index_->options().allocator,
            VistOptions::AllocatorKind::kStatistical);
  EXPECT_EQ(index_->options().lambda, 12u);
  EXPECT_EQ(Run("/P/S/N"), (std::vector<uint64_t>{1, 2}));
  Insert(4, "<P><S><N>c</N></S></P>");
  EXPECT_EQ(Run("/P/S/N"), (std::vector<uint64_t>{1, 2, 4}));
}

TEST_F(VistIndexTest, StatisticalAllocatorRequiresStats) {
  VistOptions options;
  options.allocator = VistOptions::AllocatorKind::kStatistical;
  auto index = VistIndex::Create(dir_.string(), options);
  EXPECT_FALSE(index.ok());
  EXPECT_TRUE(index.status().IsInvalidArgument());
}

TEST_F(VistIndexTest, CreateTwiceRejected) {
  CreateIndex();
  auto again = VistIndex::Create(dir_.string(), VistOptions());
  EXPECT_FALSE(again.ok());
  EXPECT_TRUE(again.status().IsInvalidArgument());
}

TEST_F(VistIndexTest, OpenMissingDirectoryFails) {
  auto index = VistIndex::Open((dir_ / "nope").string(), VistOptions());
  EXPECT_FALSE(index.ok());
  EXPECT_TRUE(index.status().IsNotFound()) << index.status().ToString();
  EXPECT_FALSE(std::filesystem::exists(dir_ / "nope")) << "Open created files";
}

TEST_F(VistIndexTest, DirectoryHoldsOnlyThePageFile) {
  auto files = [&] {
    std::vector<std::string> names;
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      names.push_back(entry.path().filename().string());
    }
    std::sort(names.begin(), names.end());
    return names;
  };
  const std::vector<std::string> page_file = {"index.db"};
  VistOptions options;
  options.store_documents = true;
  CreateIndex(options);
  EXPECT_EQ(files(), page_file);
  // Documents, not sequences: an index that stores documents refuses the
  // sequence entry points.
  for (uint64_t id = 1; id <= 20; ++id) {
    const std::string k = "k" + std::to_string(id % 5);
    Insert(id, ("<r><" + k + ">v" + std::to_string(id) + "</" + k + "></r>")
                   .c_str());
  }
  Insert(21, "<r><fresh>x</fresh></r>");
  EXPECT_EQ(files(), (std::vector<std::string>{"index.db", "index.db.journal"}))
      << "an open batch keeps its journal";
  ASSERT_TRUE(index_->Flush().ok());
  EXPECT_EQ(files(), page_file);
  ReopenIndex();
  EXPECT_EQ(files(), page_file);
  EXPECT_EQ(Run("/r/k3"), (std::vector<uint64_t>{3, 8, 13, 18}));
  EXPECT_EQ(Run("/r/fresh[text()='x']"), (std::vector<uint64_t>{21}));
  EXPECT_TRUE(index_->options().store_documents);
}

TEST_F(VistIndexTest, OpenAdoptsThePageFileSize) {
  VistOptions options;
  options.page_size = 1024;
  CreateIndex(options);
  Insert(1, "<a><b/></a>");
  index_.reset();
  VistOptions other;
  other.page_size = 8192;
  auto index = VistIndex::Open(dir_.string(), other);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ((*index)->options().page_size, 1024u);
  auto ids = (*index)->Query("/a/b");
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(*ids, (std::vector<uint64_t>{1}));
}

TEST_F(VistIndexTest, NamesOfAnAbortedWriteAreStoredByTheNextInsert) {
  CreateIndex();
  Insert(1, "<a><b/></a>");
  // Deleting a document never inserted interns its names, then aborts, so
  // no name record is written; the next committed insert stores the name
  // along with its own.
  auto ghost = xml::Parse("<a><orphan/></a>");
  ASSERT_TRUE(ghost.ok());
  EXPECT_TRUE(index_->DeleteDocument(*ghost->root(), 9).IsNotFound());
  const Symbol orphan = index_->symbols()->Lookup("orphan").value();
  Insert(2, "<a><c/></a>");
  ASSERT_TRUE(index_->Flush().ok());
  ReopenIndex();
  EXPECT_EQ(index_->symbols()->Lookup("orphan").value(), orphan);
  EXPECT_EQ(Run("/a/c"), (std::vector<uint64_t>{2}));
  EXPECT_EQ(Run("/a/b"), (std::vector<uint64_t>{1}));
}

TEST_F(VistIndexTest, StatsReflectState) {
  CreateIndex();
  auto stats0 = index_->Stats();
  ASSERT_TRUE(stats0.ok());
  EXPECT_EQ(stats0->num_documents, 0u);
  EXPECT_EQ(stats0->num_entries, 0u);
  Insert(1, "<a><b><c/></b></a>");
  auto stats1 = index_->Stats();
  ASSERT_TRUE(stats1.ok());
  EXPECT_EQ(stats1->num_documents, 1u);
  EXPECT_EQ(stats1->num_entries, 3u);
  EXPECT_EQ(stats1->max_depth, 2u);
  EXPECT_GT(stats1->size_bytes, 0u);
}

}  // namespace
}  // namespace vist
