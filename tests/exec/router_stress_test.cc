// Concurrency stress for exec::Router (ctest label: stress;
// scripts/check_tsan.sh reruns it under ThreadSanitizer).
//
// The router is the serialization point for THREE engines sharing one
// unsynchronized symbol table, plus a feedback map updated on every
// query. This test runs concurrent readers with shape-diverse queries
// (so every engine gets picked and the feedback/exploration paths all
// run) against a writer that inserts, deletes, and flushes through the
// router — exactly the races the router's reader/writer lock and the
// leaf feedback mutex must exclude. Readers assert snapshot atomicity:
// a sentinel-sensitive query must always see one of the two
// whole-writer-operation answers, never a partial fan-out.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baseline/node_index.h"
#include "baseline/path_index.h"
#include "exec/router.h"
#include "vist/vist_index.h"
#include "xml/parser.h"

namespace vist {
namespace exec {
namespace {

constexpr char kBaseDoc[] =
    "<doc><hot><leaf>x</leaf></hot><warm><item>y</item></warm></doc>";
constexpr char kSentinelDoc[] = "<doc><hot><leaf>x</leaf></hot></doc>";
constexpr char kHotQuery[] = "/doc/hot";

// The reader mix deliberately spans the cost model's regimes: a concrete
// path (path-engine territory), a '//' query (node territory), and a
// wildcard+descendant query (vist territory), so picks, feedback EWMA
// updates, and exploration probes all happen concurrently.
const char* const kReaderQueries[] = {
    "/doc/hot/leaf",
    "//item",
    "/doc//*/leaf",
    "/doc/warm[item='y']",
};

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

TEST(RouterStressTest, ReadersSeeWholeMutationsWhileWriterChurns) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("vist_router_stress_" + std::to_string(getpid())))
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

  for (uint64_t id = 1; id <= 8; ++id) {
    xml::Document doc = MustParse(kBaseDoc);
    ASSERT_TRUE(router.InsertDocument(*doc.root(), id).ok());
  }
  ASSERT_TRUE(router.Flush().ok());

  // The two whole-operation snapshots the writer toggles between.
  constexpr uint64_t kSentinelId = 999;
  xml::Document sentinel = MustParse(kSentinelDoc);
  auto oracle_without = router.Query(kHotQuery);
  ASSERT_TRUE(oracle_without.ok());
  ASSERT_TRUE(router.InsertDocument(*sentinel.root(), kSentinelId).ok());
  auto oracle_with = router.Query(kHotQuery);
  ASSERT_TRUE(oracle_with.ok());
  ASSERT_TRUE(router.DeleteDocument(*sentinel.root(), kSentinelId).ok());
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
        // One reader runs the Prepare + QueryWithPlan path (a plan holds
        // the features; the engine compiles at execution); the rest use
        // one-shot Query. All of them rotate through the shape mix.
        const char* shape = kReaderQueries[(t + i) % 4];
        Result<std::vector<uint64_t>> result = std::vector<uint64_t>{};
        if (t == 0) {
          auto plan = router.Prepare(kHotQuery);
          if (!plan.ok()) {
            bad.fetch_add(1, std::memory_order_relaxed);
            return;
          }
          result = router.QueryWithPlan(**plan);
        } else {
          result = router.Query(kHotQuery);
        }
        if (!result.ok() ||
            (*result != *oracle_without && *result != *oracle_with)) {
          bad.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        auto mixed = router.Query(shape);
        if (!mixed.ok()) {
          bad.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        served.fetch_add(1, std::memory_order_relaxed);
        ++i;
        ReaderBreath();
      }
    });
  }

  for (int round = 0; round < 12 && bad.load() == 0; ++round) {
    ASSERT_TRUE(router.InsertDocument(*sentinel.root(), kSentinelId).ok());
    ASSERT_TRUE(router.Flush().ok());
    ASSERT_TRUE(router.DeleteDocument(*sentinel.root(), kSentinelId).ok());
    ASSERT_TRUE(router.Flush().ok());
  }
  stop.store(true, std::memory_order_release);
  for (auto& thread : readers) thread.join();

  EXPECT_EQ(bad.load(), 0);
  EXPECT_GT(served.load(), 0u);
  auto final_routed = router.Query(kHotQuery);
  ASSERT_TRUE(final_routed.ok());
  EXPECT_EQ(*final_routed, *oracle_without);
  // Every engine must agree with the router after the churn settles.
  for (QueryableIndex* engine :
       {static_cast<QueryableIndex*>(vist->get()),
        static_cast<QueryableIndex*>(paths->get()),
        static_cast<QueryableIndex*>(nodes->get())}) {
    auto direct = engine->Query(kHotQuery);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(*direct, *final_routed);
  }
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace exec
}  // namespace vist
