#include "storage/btree.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>

#include "common/coding.h"
#include "storage/version.h"

namespace vist {
namespace {

// The fixture keeps one write transaction open for the whole test body
// (writer-side Put/Get/Delete/NewIterator all operate on the working
// root); Reopen() commits it so the root persists across the cycle.
class BTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("vist_btree_test_" + std::to_string(getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    OpenFresh();
  }
  void TearDown() override {
    tree_.reset();
    if (versions_ != nullptr && versions_->in_write_transaction()) {
      ASSERT_TRUE(versions_->Commit(++epoch_).ok());
    }
    versions_.reset();
    pool_.reset();
    pager_.reset();
    std::filesystem::remove_all(dir_);
  }

  void OpenFresh() {
    auto pager = Pager::Open((dir_ / "t.db").string(), PagerOptions());
    ASSERT_TRUE(pager.ok());
    pager_ = std::move(pager).value();
    pool_ = std::make_unique<BufferPool>(pager_.get(), 64);
    versions_ = std::make_unique<VersionManager>(pager_.get(), pool_.get());
    versions_->Bootstrap();
    versions_->BeginWrite();
    auto tree = BTree::Create(pager_.get(), pool_.get(), versions_.get(), 0);
    ASSERT_TRUE(tree.ok());
    tree_ = std::move(tree).value();
  }

  void Reopen() {
    ASSERT_TRUE(versions_->Commit(++epoch_).ok());
    tree_.reset();
    versions_.reset();
    pool_.reset();
    ASSERT_TRUE(pager_->Sync().ok());
    pager_.reset();
    auto pager = Pager::Open((dir_ / "t.db").string(), PagerOptions());
    ASSERT_TRUE(pager.ok());
    pager_ = std::move(pager).value();
    pool_ = std::make_unique<BufferPool>(pager_.get(), 64);
    versions_ = std::make_unique<VersionManager>(pager_.get(), pool_.get());
    versions_->Bootstrap();
    versions_->BeginWrite();
    auto tree = BTree::Open(pager_.get(), pool_.get(), versions_.get(), 0);
    ASSERT_TRUE(tree.ok());
    tree_ = std::move(tree).value();
  }

  std::filesystem::path dir_;
  std::unique_ptr<Pager> pager_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<VersionManager> versions_;
  std::unique_ptr<BTree> tree_;
  uint64_t epoch_ = 0;
};

TEST_F(BTreeTest, EmptyTreeBehaviour) {
  EXPECT_TRUE(tree_->Get("anything").status().IsNotFound());
  EXPECT_TRUE(tree_->Delete("anything").IsNotFound());
  auto it = tree_->NewIterator();
  it->SeekToFirst();
  EXPECT_FALSE(it->Valid());
  it->Seek("x");
  EXPECT_FALSE(it->Valid());
  auto count = tree_->CountEntries();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 0u);
}

TEST_F(BTreeTest, PutGetSingle) {
  ASSERT_TRUE(tree_->Put("hello", "world").ok());
  auto v = tree_->Get("hello");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "world");
  EXPECT_TRUE(tree_->Get("hell").status().IsNotFound());
  EXPECT_TRUE(tree_->Get("hello ").status().IsNotFound());
}

TEST_F(BTreeTest, UpsertReplacesValue) {
  ASSERT_TRUE(tree_->Put("k", "v1").ok());
  ASSERT_TRUE(tree_->Put("k", "v2-longer-than-before").ok());
  auto v = tree_->Get("k");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "v2-longer-than-before");
  auto count = tree_->CountEntries();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 1u);
}

TEST_F(BTreeTest, ManyInsertionsSplitAndStaySorted) {
  const int kN = 5000;
  for (int i = 0; i < kN; ++i) {
    std::string key;
    PutFixed32BE(&key, static_cast<uint32_t>((i * 2654435761u)));  // shuffled
    ASSERT_TRUE(tree_->Put(key, "v" + std::to_string(i)).ok()) << i;
  }
  auto count = tree_->CountEntries();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, static_cast<uint64_t>(kN));

  auto it = tree_->NewIterator();
  std::string prev;
  int n = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    std::string k = it->key().ToString();
    if (n > 0) {
      EXPECT_LT(prev, k);
    }
    prev = k;
    ++n;
  }
  ASSERT_TRUE(it->status().ok());
  EXPECT_EQ(n, kN);
}

TEST_F(BTreeTest, PointLookupsAfterSplits) {
  const int kN = 3000;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(tree_
                    ->Put("key_" + std::to_string(i * 7 % kN),
                          "val_" + std::to_string(i * 7 % kN))
                    .ok());
  }
  for (int i = 0; i < kN; ++i) {
    auto v = tree_->Get("key_" + std::to_string(i));
    ASSERT_TRUE(v.ok()) << "key_" << i;
    EXPECT_EQ(*v, "val_" + std::to_string(i));
  }
}

TEST_F(BTreeTest, SeekFindsFirstKeyAtOrAfter) {
  for (int i = 0; i < 100; ++i) {
    char buf[8];
    snprintf(buf, sizeof(buf), "k%03d", i * 10);
    ASSERT_TRUE(tree_->Put(buf, "v").ok());
  }
  auto it = tree_->NewIterator();
  it->Seek("k005");
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key().ToString(), "k010");
  it->Seek("k010");
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key().ToString(), "k010");
  it->Seek("k990");
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key().ToString(), "k990");
  it->Seek("k991");
  EXPECT_FALSE(it->Valid());
}

TEST_F(BTreeTest, DeleteRemovesAndCompactsTree) {
  const int kN = 2000;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(tree_->Put("key_" + std::to_string(1000 + i), "v").ok());
  }
  // Delete everything.
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(tree_->Delete("key_" + std::to_string(1000 + i)).ok()) << i;
  }
  auto count = tree_->CountEntries();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 0u);
  EXPECT_TRUE(tree_->Get("key_1500").status().IsNotFound());
  // Tree is usable after total deletion.
  ASSERT_TRUE(tree_->Put("again", "yes").ok());
  auto v = tree_->Get("again");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "yes");
}

TEST_F(BTreeTest, DeleteInterleavedWithScan) {
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(tree_->Put("k" + std::to_string(10000 + i), "v").ok());
  }
  // Delete odd keys.
  for (int i = 1; i < 1000; i += 2) {
    ASSERT_TRUE(tree_->Delete("k" + std::to_string(10000 + i)).ok());
  }
  auto it = tree_->NewIterator();
  int n = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    int num = std::stoi(it->key().ToString().substr(1)) - 10000;
    EXPECT_EQ(num % 2, 0);
    ++n;
  }
  EXPECT_EQ(n, 500);
}

TEST_F(BTreeTest, PersistsAcrossReopen) {
  for (int i = 0; i < 1500; ++i) {
    ASSERT_TRUE(tree_->Put("key_" + std::to_string(i), std::to_string(i)).ok());
  }
  Reopen();
  for (int i = 0; i < 1500; ++i) {
    auto v = tree_->Get("key_" + std::to_string(i));
    ASSERT_TRUE(v.ok()) << i;
    EXPECT_EQ(*v, std::to_string(i));
  }
}

TEST_F(BTreeTest, OpenWithoutCreateFails) {
  auto missing = BTree::Open(pager_.get(), pool_.get(), versions_.get(), 9);
  EXPECT_FALSE(missing.ok());
  EXPECT_TRUE(missing.status().IsNotFound());
}

TEST_F(BTreeTest, MultipleTreesShareOneFile) {
  auto tree2 = BTree::Create(pager_.get(), pool_.get(), versions_.get(), 1);
  ASSERT_TRUE(tree2.ok());
  ASSERT_TRUE(tree_->Put("shared_key", "from_tree1").ok());
  ASSERT_TRUE((*tree2)->Put("shared_key", "from_tree2").ok());
  auto v1 = tree_->Get("shared_key");
  auto v2 = (*tree2)->Get("shared_key");
  ASSERT_TRUE(v1.ok() && v2.ok());
  EXPECT_EQ(*v1, "from_tree1");
  EXPECT_EQ(*v2, "from_tree2");
}

TEST_F(BTreeTest, OversizedCellRejected) {
  std::string huge(NodePage::MaxCellSize(4096) + 1, 'x');
  EXPECT_TRUE(tree_->Put("k", huge).IsInvalidArgument());
  EXPECT_TRUE(tree_->Put(huge, "v").IsInvalidArgument());
}

TEST_F(BTreeTest, BinaryKeysWithEmbeddedZeros) {
  std::string k1("a\0b", 3);
  std::string k2("a\0c", 3);
  std::string k3("a", 1);
  ASSERT_TRUE(tree_->Put(k1, "1").ok());
  ASSERT_TRUE(tree_->Put(k2, "2").ok());
  ASSERT_TRUE(tree_->Put(k3, "3").ok());
  auto it = tree_->NewIterator();
  it->SeekToFirst();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key().ToString(), k3);
  it->Next();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key().ToString(), k1);
  it->Next();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key().ToString(), k2);
}

TEST_F(BTreeTest, RangeScanBetweenBounds) {
  for (int i = 0; i < 500; ++i) {
    std::string key;
    PutFixed64BE(&key, static_cast<uint64_t>(i * 3));
    ASSERT_TRUE(tree_->Put(key, std::to_string(i * 3)).ok());
  }
  // Scan [100, 200): expect multiples of 3 in that window.
  std::string lo, hi;
  PutFixed64BE(&lo, 100);
  PutFixed64BE(&hi, 200);
  auto it = tree_->NewIterator();
  std::vector<uint64_t> got;
  for (it->Seek(lo); it->Valid() && it->key().Compare(hi) < 0; it->Next()) {
    got.push_back(DecodeFixed64BE(it->key().data()));
  }
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got.front(), 102u);
  EXPECT_EQ(got.back(), 198u);
  for (size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], 102 + 3 * i);
}

}  // namespace
}  // namespace vist
