// Property tests: the B+ tree must behave exactly like std::map under long
// randomized sequences of interleaved Put/Delete/Get/scan, across several
// page sizes, value sizes, and reopen points. One cursor re-seeked many
// times (the finger Seek) must answer like a fresh one.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "obs/metrics.h"
#include "storage/btree.h"
#include "storage/version.h"

namespace vist {
namespace {

struct PropertyParam {
  uint32_t page_size;
  int max_key_len;
  int max_value_len;
  uint64_t seed;
};

class BTreePropertyTest : public ::testing::TestWithParam<PropertyParam> {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("vist_btree_prop_" + std::to_string(getpid()) + "_" +
            std::to_string(GetParam().seed) + "_" +
            std::to_string(GetParam().page_size) + "_" +
            std::to_string(GetParam().max_value_len));
    std::filesystem::create_directories(dir_);
    Open(/*create=*/true);
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

  void Open(bool create) {
    PagerOptions opts;
    opts.page_size = GetParam().page_size;
    auto pager = Pager::Open((dir_ / "t.db").string(), opts);
    ASSERT_TRUE(pager.ok()) << pager.status().ToString();
    pager_ = std::move(pager).value();
    pool_ = std::make_unique<BufferPool>(pager_.get(), 32);
    versions_ = std::make_unique<VersionManager>(pager_.get(), pool_.get());
    versions_->Bootstrap();
    versions_->BeginWrite();
    auto tree =
        create ? BTree::Create(pager_.get(), pool_.get(), versions_.get(), 0)
               : BTree::Open(pager_.get(), pool_.get(), versions_.get(), 0);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    tree_ = std::move(tree).value();
  }

  void Reopen() {
    ASSERT_TRUE(versions_->Commit(++epoch_).ok());
    tree_.reset();
    versions_.reset();
    pool_.reset();
    ASSERT_TRUE(pager_->Sync().ok());
    pager_.reset();
    Open(/*create=*/false);
  }

  /// Publishes the open transaction as a version and starts the next one —
  /// the property sweep interleaves these so shadowing, publish, and
  /// no-pin reclamation all run under the randomized op stream.
  void CommitCycle() {
    ASSERT_TRUE(versions_->Commit(++epoch_).ok());
    versions_->BeginWrite();
  }

  std::string RandomKey(Random* rng) {
    const int len = 1 + static_cast<int>(rng->Uniform(GetParam().max_key_len));
    std::string key(len, 0);
    for (int i = 0; i < len; ++i) {
      // Narrow alphabet so Deletes hit existing keys often.
      key[i] = static_cast<char>('a' + rng->Uniform(4));
    }
    return key;
  }

  void CheckFullEquality(const std::map<std::string, std::string>& model) {
    auto it = tree_->NewIterator();
    auto mit = model.begin();
    for (it->SeekToFirst(); it->Valid(); it->Next(), ++mit) {
      ASSERT_NE(mit, model.end()) << "tree has extra key "
                                  << it->key().ToString();
      EXPECT_EQ(it->key().ToString(), mit->first);
      EXPECT_EQ(it->value().ToString(), mit->second);
    }
    ASSERT_TRUE(it->status().ok());
    EXPECT_EQ(mit, model.end()) << "tree is missing keys";
  }

  std::filesystem::path dir_;
  std::unique_ptr<Pager> pager_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<VersionManager> versions_;
  std::unique_ptr<BTree> tree_;
  uint64_t epoch_ = 0;
};

TEST_P(BTreePropertyTest, MatchesStdMapUnderRandomOps) {
  Random rng(GetParam().seed);
  std::map<std::string, std::string> model;
  const int kOps = 6000;
  for (int op = 0; op < kOps; ++op) {
    const uint64_t kind = rng.Uniform(10);
    std::string key = RandomKey(&rng);
    if (kind < 6) {  // Put
      std::string value(rng.Uniform(GetParam().max_value_len + 1), 0);
      for (char& c : value) c = static_cast<char>(rng.Uniform(256));
      ASSERT_TRUE(tree_->Put(key, value).ok());
      model[key] = value;
    } else if (kind < 9) {  // Delete
      Status s = tree_->Delete(key);
      if (model.erase(key) > 0) {
        EXPECT_TRUE(s.ok()) << "delete of present key failed: " << key;
      } else {
        EXPECT_TRUE(s.IsNotFound());
      }
    } else {  // Get
      auto v = tree_->Get(key);
      auto mit = model.find(key);
      if (mit == model.end()) {
        EXPECT_TRUE(v.status().IsNotFound());
      } else {
        ASSERT_TRUE(v.ok());
        EXPECT_EQ(*v, mit->second);
      }
    }
    if (op % 500 == 499) CommitCycle();
    if (op == kOps / 2) {
      CheckFullEquality(model);
      Reopen();
    }
  }
  CheckFullEquality(model);
  auto count = tree_->CountEntries();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, model.size());
}

TEST_P(BTreePropertyTest, SeekAgreesWithLowerBound) {
  Random rng(GetParam().seed ^ 0xabcdef);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 2000; ++i) {
    std::string key = RandomKey(&rng);
    ASSERT_TRUE(tree_->Put(key, "v").ok());
    model[key] = "v";
  }
  for (int i = 0; i < 500; ++i) {
    std::string probe = RandomKey(&rng);
    auto it = tree_->NewIterator();
    it->Seek(probe);
    auto mit = model.lower_bound(probe);
    if (mit == model.end()) {
      EXPECT_FALSE(it->Valid()) << probe;
    } else {
      ASSERT_TRUE(it->Valid()) << probe;
      EXPECT_EQ(it->key().ToString(), mit->first);
    }
  }
}

// Seeks `it` to `target` and checks it against `model` for the entry found
// and the `steps` entries after it (Next() runs that cross leaves).
void CheckSeek(BTree::Iterator* it,
               const std::map<std::string, std::string>& model,
               const std::string& target, int steps) {
  it->Seek(target);
  auto mit = model.lower_bound(target);
  for (int step = 0;; ++step, ++mit) {
    ASSERT_TRUE(it->status().ok()) << it->status().ToString();
    if (mit == model.end()) {
      ASSERT_FALSE(it->Valid()) << target << " +" << step;
      return;
    }
    ASSERT_TRUE(it->Valid()) << target << " +" << step;
    ASSERT_EQ(it->key().ToString(), mit->first) << target << " +" << step;
    ASSERT_EQ(it->value().ToString(), mit->second);
    if (step == steps) return;
    it->Next();
  }
}

TEST_P(BTreePropertyTest, FingerSeekAgreesWithStdMap) {
  Random rng(GetParam().seed ^ 0xf1a9e5);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 2000; ++i) {
    std::string key = RandomKey(&rng);
    ASSERT_TRUE(tree_->Put(key, "v" + std::to_string(i)).ok());
    model[key] = "v" + std::to_string(i);
  }
  std::vector<std::string> targets;
  for (int i = 0; i < 300; ++i) targets.push_back(RandomKey(&rng));
  std::sort(targets.begin(), targets.end());
  // Past every key: the alphabet is 'a'..'d'.
  const std::string past_end(GetParam().max_key_len + 1, 'z');

  auto it = tree_->NewIterator();
  for (const std::string& target : targets) {  // ascending
    CheckSeek(it.get(), model, target, static_cast<int>(rng.Uniform(3)));
  }
  for (auto t = targets.rbegin(); t != targets.rend(); ++t) {  // descending
    CheckSeek(it.get(), model, *t, static_cast<int>(rng.Uniform(3)));
  }
  for (int i = 0; i < 300; ++i) {  // random, with runs across leaves
    CheckSeek(it.get(), model, RandomKey(&rng),
              static_cast<int>(rng.Uniform(60)));
    if (i % 50 == 0) CheckSeek(it.get(), model, past_end, 0);
  }
  // Off the end by Next(), then back.
  CheckSeek(it.get(), model, model.rbegin()->first, 1);
  CheckSeek(it.get(), model, targets[targets.size() / 2], 3);
  CheckSeek(it.get(), model, past_end, 0);
  CheckSeek(it.get(), model, targets.front(), 3);
}

TEST_P(BTreePropertyTest, AscendingFingerSeeksLoadEachPageAtMostOnce) {
  Random rng(GetParam().seed ^ 0xa5c);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 2000; ++i) {
    std::string key = RandomKey(&rng);
    ASSERT_TRUE(tree_->Put(key, "v").ok());
    model[key] = "v";
  }
  uint64_t& accesses = obs::ThisThreadStorageCounters().btree_node_accesses;
  // A full scan loads every page of the tree exactly once.
  uint64_t before = accesses;
  ASSERT_TRUE(tree_->CountEntries().ok());
  const uint64_t pages = accesses - before;

  // A seek to every key in order never returns to a subtree it left, so
  // it loads no page twice; one root-to-leaf descent per key would load
  // height x keys.
  before = accesses;
  auto it = tree_->NewIterator();
  for (const auto& [key, value] : model) {
    it->Seek(key);
    ASSERT_TRUE(it->Valid());
    ASSERT_EQ(it->key().ToString(), key);
  }
  EXPECT_LE(accesses - before, pages);
}

TEST_P(BTreePropertyTest, FingerSeeksOnASnapshotWhileAWriterCommits) {
  Random rng(GetParam().seed ^ 0x7ead);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 1500; ++i) {
    std::string key = RandomKey(&rng);
    ASSERT_TRUE(tree_->Put(key, "v" + std::to_string(i)).ok());
    model[key] = "v" + std::to_string(i);
  }
  ASSERT_TRUE(versions_->Commit(++epoch_).ok());
  const std::shared_ptr<const Version> pinned = versions_->Pin();
  versions_->BeginWrite();

  // The reader keeps one cursor on the pinned version while the writer
  // shadows, commits and retires the pages around it.
  std::thread reader([&] {
    Random reader_rng(GetParam().seed ^ 0x4ead);
    auto it = tree_->ViewAt(*pinned).NewIterator();
    for (int i = 0; i < 1500 && !::testing::Test::HasFailure(); ++i) {
      CheckSeek(it.get(), model, RandomKey(&reader_rng),
                static_cast<int>(reader_rng.Uniform(20)));
    }
  });
  for (int i = 0; i < 3000; ++i) {
    std::string key = RandomKey(&rng);
    const Status s = rng.Uniform(3) == 0
                         ? tree_->Delete(key)
                         : tree_->Put(key, "post" + std::to_string(i));
    if (!s.ok() && !s.IsNotFound()) {
      ADD_FAILURE() << s.ToString();
      break;  // still join the reader
    }
    if (i % 200 == 199) CommitCycle();
  }
  reader.join();
}

TEST_P(BTreePropertyTest, SnapshotViewIsRepeatableUnderLaterMutations) {
  Random rng(GetParam().seed ^ 0x5eed);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 1500; ++i) {
    std::string key = RandomKey(&rng);
    ASSERT_TRUE(tree_->Put(key, "v" + std::to_string(i)).ok());
    model[key] = "v" + std::to_string(i);
  }
  ASSERT_TRUE(versions_->Commit(++epoch_).ok());
  std::shared_ptr<const Version> pinned = versions_->Pin();
  const std::map<std::string, std::string> frozen = model;

  // Heavy churn after the pin: overwrites, deletes, inserts, across
  // several later versions (each commit moves pages into limbo; the pin
  // keeps them readable).
  versions_->BeginWrite();
  for (int i = 0; i < 3000; ++i) {
    std::string key = RandomKey(&rng);
    if (rng.Uniform(3) == 0) {
      Status s = tree_->Delete(key);
      if (!s.ok()) {
        EXPECT_TRUE(s.IsNotFound());
      }
    } else {
      ASSERT_TRUE(tree_->Put(key, "post" + std::to_string(i)).ok());
    }
    if (i % 700 == 699) CommitCycle();
  }

  // The pinned view still reads exactly the state frozen at pin time.
  BTreeView view = tree_->ViewAt(*pinned);
  auto it = view.NewIterator();
  auto mit = frozen.begin();
  for (it->SeekToFirst(); it->Valid(); it->Next(), ++mit) {
    ASSERT_NE(mit, frozen.end()) << "snapshot has extra key "
                                 << it->key().ToString();
    EXPECT_EQ(it->key().ToString(), mit->first);
    EXPECT_EQ(it->value().ToString(), mit->second);
  }
  ASSERT_TRUE(it->status().ok());
  EXPECT_EQ(mit, frozen.end()) << "snapshot is missing keys";
  for (const auto& [key, value] : frozen) {
    auto got = view.Get(key);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(*got, value);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BTreePropertyTest,
    ::testing::Values(
        PropertyParam{512, 8, 16, 1},     // tiny pages: deep tree, many splits
        PropertyParam{512, 20, 40, 2},    // tiny pages, bigger cells
        PropertyParam{4096, 12, 32, 3},   // default page size
        PropertyParam{4096, 12, 500, 4},  // large values
        PropertyParam{4096, 64, 0, 5},    // long keys, empty values
        PropertyParam{16384, 24, 128, 6}  // big pages: shallow tree
        ),
    [](const ::testing::TestParamInfo<PropertyParam>& info) {
      return "page" + std::to_string(info.param.page_size) + "_klen" +
             std::to_string(info.param.max_key_len) + "_vlen" +
             std::to_string(info.param.max_value_len) + "_seed" +
             std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace vist
