#include "storage/buffer_pool.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

namespace vist {
namespace {

class BufferPoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("vist_pool_test_" + std::to_string(getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    auto pager = Pager::Open((dir_ / "pages.db").string(), PagerOptions());
    ASSERT_TRUE(pager.ok());
    pager_ = std::move(pager).value();
  }
  void TearDown() override {
    pager_.reset();
    std::filesystem::remove_all(dir_);
  }

  std::filesystem::path dir_;
  std::unique_ptr<Pager> pager_;
};

TEST_F(BufferPoolTest, NewPageIsZeroedAndDirty) {
  BufferPool pool(pager_.get(), 16);
  auto ref = pool.New();
  ASSERT_TRUE(ref.ok());
  for (uint32_t i = 0; i < pager_->page_size(); ++i) {
    ASSERT_EQ(ref->data()[i], 0) << "byte " << i;
  }
  // Dirty new pages reach disk on flush.
  memset(ref->data(), 'Q', 16);
  PageId id = ref->id();
  ref->Release();
  ASSERT_TRUE(pool.FlushAll().ok());
  std::string buf(pager_->page_size(), 0);
  ASSERT_TRUE(pager_->ReadPage(id, buf.data()).ok());
  EXPECT_EQ(buf[0], 'Q');
  EXPECT_EQ(buf[15], 'Q');
}

TEST_F(BufferPoolTest, FetchHitsCache) {
  BufferPool pool(pager_.get(), 16);
  auto ref = pool.New();
  ASSERT_TRUE(ref.ok());
  PageId id = ref->id();
  ref->Release();

  uint64_t misses_before = pool.miss_count();
  auto again = pool.Fetch(id);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(pool.miss_count(), misses_before);
  EXPECT_GT(pool.hit_count(), 0u);
}

TEST_F(BufferPoolTest, EvictionWritesBackDirtyPages) {
  BufferPool pool(pager_.get(), 8);
  std::vector<PageId> ids;
  // Dirty 32 pages through a pool that holds 8: most get evicted.
  for (int i = 0; i < 32; ++i) {
    auto ref = pool.New();
    ASSERT_TRUE(ref.ok());
    memset(ref->data(), 'a' + (i % 26), 32);
    ids.push_back(ref->id());
  }
  // Re-reading every page (through the pool, after evictions) sees the data.
  for (int i = 0; i < 32; ++i) {
    auto ref = pool.Fetch(ids[i]);
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(ref->data()[0], 'a' + (i % 26)) << "page " << i;
  }
  EXPECT_GT(pool.miss_count(), 0u);
}

TEST_F(BufferPoolTest, PinnedPagesAreNotEvicted) {
  BufferPool pool(pager_.get(), 8);
  auto pinned = pool.New();
  ASSERT_TRUE(pinned.ok());
  memset(pinned->data(), 'P', 8);
  char* stable_ptr = pinned->data();

  // Churn the pool well past capacity while the pin is held.
  for (int i = 0; i < 64; ++i) {
    auto ref = pool.New();
    ASSERT_TRUE(ref.ok());
  }
  // The pinned frame is still resident at the same address with its data.
  EXPECT_EQ(pinned->data(), stable_ptr);
  EXPECT_EQ(pinned->data()[0], 'P');
}

TEST_F(BufferPoolTest, AllPinnedReportsError) {
  BufferPool pool(pager_.get(), 8);
  std::vector<PageRef> pins;
  for (int i = 0; i < 8; ++i) {
    auto ref = pool.New();
    ASSERT_TRUE(ref.ok());
    pins.push_back(std::move(ref).value());
  }
  auto overflow = pool.New();
  EXPECT_FALSE(overflow.ok());
}

// Fills an 8-frame pool with 8 written-back, unpinned pages and returns
// their ids.
std::vector<PageId> FillPool(BufferPool* pool) {
  std::vector<PageId> ids;
  for (int i = 0; i < 8; ++i) {
    auto ref = pool->New();
    EXPECT_TRUE(ref.ok());
    if (!ref.ok()) return ids;
    memset(ref->data(), 'a' + i, 16);
    ids.push_back(ref->id());
  }
  EXPECT_TRUE(pool->FlushAll().ok());
  return ids;
}

TEST_F(BufferPoolTest, ClockGivesAHitFrameASecondChance) {
  BufferPool pool(pager_.get(), 8);
  const std::vector<PageId> ids = FillPool(&pool);
  ASSERT_EQ(ids.size(), 8u);
  // Hit every frame but one, wherever the hand stands.
  constexpr size_t kCold = 3;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i != kCold) {
      ASSERT_TRUE(pool.Fetch(ids[i]).ok());
    }
  }
  // One eviction pass: the hand clears the hit frames' bits and takes the
  // cold one.
  ASSERT_TRUE(pool.New().ok());
  const uint64_t misses = pool.miss_count();
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i == kCold) continue;
    auto ref = pool.Fetch(ids[i]);
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(ref->data()[0], 'a' + static_cast<int>(i));
  }
  EXPECT_EQ(pool.miss_count(), misses) << "a hit frame was evicted";
  ASSERT_TRUE(pool.Fetch(ids[kCold]).ok());
  EXPECT_EQ(pool.miss_count(), misses + 1) << "the cold frame stayed";
}

TEST_F(BufferPoolTest, ClockNeverChoosesAPinnedFrame) {
  BufferPool pool(pager_.get(), 8);
  const std::vector<PageId> ids = FillPool(&pool);
  ASSERT_EQ(ids.size(), 8u);
  // Pin seven frames, hit and cold alike; only the eighth can be a victim.
  std::vector<PageRef> pins;
  for (size_t i = 0; i + 1 < ids.size(); ++i) {
    auto ref = pool.Fetch(ids[i]);
    ASSERT_TRUE(ref.ok());
    pins.push_back(std::move(ref).value());
  }
  EXPECT_EQ(pool.pinned_frames(), 7u);
  for (int round = 0; round < 20; ++round) ASSERT_TRUE(pool.New().ok());
  const uint64_t misses = pool.miss_count();
  for (size_t i = 0; i < pins.size(); ++i) {
    EXPECT_EQ(pins[i].data()[0], 'a' + static_cast<int>(i));
    ASSERT_TRUE(pool.Fetch(ids[i]).ok());
  }
  EXPECT_EQ(pool.miss_count(), misses) << "a pinned frame was evicted";
  pins.clear();
  EXPECT_EQ(pool.pinned_frames(), 0u);
}

TEST_F(BufferPoolTest, ClockReportsExhaustionWhenEveryFrameIsPinned) {
  BufferPool pool(pager_.get(), 8);
  const std::vector<PageId> ids = FillPool(&pool);
  ASSERT_EQ(ids.size(), 8u);
  PageId outside = kInvalidPageId;
  {
    auto ref = pool.New();  // evicts one of the eight
    ASSERT_TRUE(ref.ok());
    outside = ref->id();
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  std::vector<PageRef> pins;
  for (PageId id : ids) {
    auto ref = pool.Fetch(id);
    ASSERT_TRUE(ref.ok());
    pins.push_back(std::move(ref).value());
  }
  EXPECT_EQ(pool.pinned_frames(), 8u);
  auto miss = pool.Fetch(outside);
  ASSERT_FALSE(miss.ok());
  EXPECT_NE(miss.status().ToString().find("exhausted"), std::string::npos)
      << miss.status().ToString();
  EXPECT_FALSE(pool.New().ok());
  // One unpin (lock-free) makes room again.
  pins.pop_back();
  EXPECT_TRUE(pool.Fetch(outside).ok());
}

TEST_F(BufferPoolTest, MovedFromRefIsInert) {
  BufferPool pool(pager_.get(), 16);
  auto ref = pool.New();
  ASSERT_TRUE(ref.ok());
  PageRef a = std::move(ref).value();
  PageRef b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  b.Release();
  EXPECT_FALSE(b.valid());
}

TEST_F(BufferPoolTest, ValidationFlagSetOncePerDiskLoad) {
  BufferPool pool(pager_.get(), 8);
  PageId id;
  {
    auto ref = pool.New();
    ASSERT_TRUE(ref.ok());
    id = ref->id();
    // Fresh (zeroed) pages were not read from disk: nothing to validate.
    EXPECT_FALSE(ref->NeedsValidation());
  }
  // Evict the frame by churning the pool, then re-fetch: disk load.
  for (int i = 0; i < 16; ++i) ASSERT_TRUE(pool.New().ok());
  {
    auto ref = pool.Fetch(id);
    ASSERT_TRUE(ref.ok());
    EXPECT_TRUE(ref->NeedsValidation());
    ref->MarkValidated();
  }
  {
    // Still resident: no revalidation needed.
    auto ref = pool.Fetch(id);
    ASSERT_TRUE(ref.ok());
    EXPECT_FALSE(ref->NeedsValidation());
  }
}

TEST_F(BufferPoolTest, FreeDropsCachedFrame) {
  BufferPool pool(pager_.get(), 16);
  auto ref = pool.New();
  ASSERT_TRUE(ref.ok());
  PageId id = ref->id();
  ref->Release();
  ASSERT_TRUE(pool.Free(id).ok());
  // The pager reuses the freed page.
  auto again = pool.New();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->id(), id);
}

TEST_F(BufferPoolTest, FreeOfPinnedPageRejected) {
  BufferPool pool(pager_.get(), 16);
  auto ref = pool.New();
  ASSERT_TRUE(ref.ok());
  EXPECT_FALSE(pool.Free(ref->id()).ok());
}

}  // namespace
}  // namespace vist
