// Concurrency stress for exec::CachingIndex (ctest label: stress;
// scripts/check_tsan.sh reruns it under ThreadSanitizer).
//
// The contract under test (docs/SERVING.md): queries served through the
// cache are indistinguishable from queries against the bare engine — every
// answer corresponds to some whole-writer-operation snapshot, even while a
// writer churns the index and invalidates the result tier every few
// hundred microseconds. The cache's shard mutexes are leaves of the lock
// order, so readers, the writer, and a Clear() loop may all run at once.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exec/caching_index.h"
#include "vist/vist_index.h"
#include "xml/parser.h"

namespace vist {
namespace exec {
namespace {

constexpr char kHotDoc[] = "<doc><hot><leaf>x</leaf></hot></doc>";
constexpr char kColdDoc[] = "<doc><cold><leaf>y</leaf></cold></doc>";
constexpr char kHotQuery[] = "/doc/hot";

xml::Document MustParse(const std::string& text) {
  auto doc = xml::Parse(text);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  return std::move(doc).value();
}

/// See ConcurrentQueryTest::ReaderBreath — guarantees writer windows on a
/// reader-preferring shared_mutex.
void ReaderBreath() {
  std::this_thread::sleep_for(std::chrono::microseconds(200));
}

class CachingStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("vist_cache_stress_" + std::to_string(getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_F(CachingStressTest, CachedReadersSeeOnlyWholeWriterSnapshots) {
  auto created = VistIndex::Create(dir_, VistOptions{});
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<VistIndex> index = std::move(created).value();
  CachingIndex cache(index.get());

  for (uint64_t id = 1; id <= 20; ++id) {
    xml::Document doc = MustParse(id <= 10 ? kHotDoc : kColdDoc);
    ASSERT_TRUE(index->InsertDocument(*doc.root(), id).ok());
  }
  ASSERT_TRUE(index->Flush().ok());

  // The two snapshots the writer toggles between, from single-threaded
  // oracle runs against the bare index.
  constexpr uint64_t kSentinelId = 999;
  xml::Document sentinel = MustParse(kHotDoc);
  auto oracle_without = index->Query(kHotQuery);
  ASSERT_TRUE(oracle_without.ok());
  ASSERT_TRUE(index->InsertDocument(*sentinel.root(), kSentinelId).ok());
  auto oracle_with = index->Query(kHotQuery);
  ASSERT_TRUE(oracle_with.ok());
  ASSERT_TRUE(index->DeleteDocument(*sentinel.root(), kSentinelId).ok());
  ASSERT_NE(*oracle_without, *oracle_with);

  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::atomic<uint64_t> served{0};
  constexpr int kReaders = 4;
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      uint64_t i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        // Mix the serving paths: the hot query exercises result hits and
        // epoch invalidation; the rotating point queries churn the LRU;
        // one reader goes through Prepare + QueryWithPlan.
        Result<std::vector<uint64_t>> result = std::vector<uint64_t>{};
        if (t == 0) {
          auto plan = cache.Prepare(kHotQuery);
          if (!plan.ok()) {
            bad.fetch_add(1, std::memory_order_relaxed);
            return;
          }
          result = cache.QueryWithPlan(**plan);
        } else {
          result = cache.Query(kHotQuery);
        }
        if (!result.ok() ||
            (*result != *oracle_without && *result != *oracle_with)) {
          bad.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        auto point = cache.Query("/doc/p" + std::to_string(i % 7));
        if (!point.ok() || !point->empty()) {
          bad.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        served.fetch_add(1, std::memory_order_relaxed);
        ++i;
        ReaderBreath();
      }
    });
  }

  // A maintenance thread clears the cache while everyone runs: Clear()
  // takes every shard mutex and must not deadlock or corrupt the cache.
  std::thread clearer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      cache.Clear();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  for (int round = 0; round < 12 && bad.load() == 0; ++round) {
    ASSERT_TRUE(index->InsertDocument(*sentinel.root(), kSentinelId).ok());
    ASSERT_TRUE(index->Flush().ok());
    ASSERT_TRUE(index->DeleteDocument(*sentinel.root(), kSentinelId).ok());
    ASSERT_TRUE(index->Flush().ok());
  }
  stop.store(true, std::memory_order_release);
  for (auto& thread : readers) thread.join();
  clearer.join();

  EXPECT_EQ(bad.load(), 0);
  EXPECT_GT(served.load(), 0u);
  auto final_cached = cache.Query(kHotQuery);
  auto final_direct = index->Query(kHotQuery);
  ASSERT_TRUE(final_cached.ok());
  ASSERT_TRUE(final_direct.ok());
  EXPECT_EQ(*final_cached, *final_direct);
  EXPECT_EQ(*final_cached, *oracle_without);
}

}  // namespace
}  // namespace exec
}  // namespace vist
