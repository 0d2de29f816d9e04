// Lockdep detector tests (common/lockdep.h). The detector core is
// compiled into every build, so the death tests below drive the
// OnAcquire/OnRelease API directly with literal sites — proving the
// abort reports name BOTH acquisition sites — in the plain tier-1 run,
// no special configuration needed. The tests against the real
// vist::Mutex wrappers additionally require the hooks, so they skip
// unless the build has -DVIST_DEADLOCK_DEBUG=ON (scripts/check_tsan.sh
// builds that way).
//
// Death-test hygiene: each EXPECT_DEATH runs the statement in a forked
// child, so held-lock state and graph edges recorded by a dying child
// never leak into this process. Acquisitions made in the parent are
// always released, and the ranks used for legal chains here are chosen
// to record only edges the production code could itself produce.

#include "common/lockdep.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/mutex.h"

namespace vist {
namespace lockdep {
namespace {

// Distinct dummies so recursive-acquisition detection (keyed on the
// mutex address) never fires where rank checking is under test.
int dummy_a, dummy_b, dummy_c;

TEST(LockdepTest, LegalChainPushesAndPopsHeldStack) {
  ASSERT_EQ(HeldLockCountForTesting(), 0u);
  OnAcquire(&dummy_a, LockRank::kTestHarness, /*shared=*/false, "chain.cc",
            1);
  OnAcquire(&dummy_b, LockRank::kIndexWriter, /*shared=*/false, "chain.cc",
            2);
  OnAcquire(&dummy_c, LockRank::kBufferPoolShard, /*shared=*/false,
            "chain.cc", 3);
  EXPECT_EQ(HeldLockCountForTesting(), 3u);
  OnRelease(&dummy_c);
  OnRelease(&dummy_b);
  OnRelease(&dummy_a);
  EXPECT_EQ(HeldLockCountForTesting(), 0u);
}

TEST(LockdepDeathTest, RankInversionAbortsWithBothSites) {
  OnAcquire(&dummy_a, LockRank::kBufferPoolShard, /*shared=*/false,
            "first_site.cc", 11);
  // Acquiring a test-harness lock (order 5) while holding a buffer-pool
  // shard (order 30) is the potential deadlock lockdep exists to catch —
  // even though this schedule, alone, would not have deadlocked. The
  // report must name the acquiring site AND the held site.
  EXPECT_DEATH(OnAcquire(&dummy_b, LockRank::kTestHarness, /*shared=*/false,
                         "second_site.cc", 22),
               "lock-rank inversion.*"
               "acquiring: kTestHarness \\(order 5\\) at "
               "second_site\\.cc:22.*"
               "while holding: kBufferPoolShard \\(order 30\\) acquired at "
               "first_site\\.cc:11");
  OnRelease(&dummy_a);
}

TEST(LockdepDeathTest, EqualOrderIsAnInversionToo) {
  // Two locks of one class (e.g. two buffer-pool shards) must never
  // nest: FlushAll iterates shards strictly sequentially.
  OnAcquire(&dummy_a, LockRank::kBufferPoolShard, /*shared=*/false,
            "shard_a.cc", 1);
  EXPECT_DEATH(OnAcquire(&dummy_b, LockRank::kBufferPoolShard,
                         /*shared=*/false, "shard_b.cc", 2),
               "lock-rank inversion.*shard_b\\.cc:2.*shard_a\\.cc:1");
  OnRelease(&dummy_a);
}

TEST(LockdepDeathTest, RecursiveAcquisitionAborts) {
  OnAcquire(&dummy_a, LockRank::kTestHarness, /*shared=*/false, "outer.cc",
            5);
  EXPECT_DEATH(OnAcquire(&dummy_a, LockRank::kTestHarness, /*shared=*/false,
                         "inner.cc", 6),
               "recursive acquisition.*inner\\.cc:6.*outer\\.cc:5");
  OnRelease(&dummy_a);
}

TEST(LockdepDeathTest, LearnedEdgeCycleAbortsWithFirstObservedSites) {
  // The unordered test peers skip the strict rank comparison, so their
  // ordering is learned: A-then-B records the edge A -> B, and a later
  // B-then-A closes the cycle and must abort citing where the first
  // direction was originally observed.
  EXPECT_DEATH(
      {
        OnAcquire(&dummy_a, LockRank::kTestPeerA, /*shared=*/false,
                  "ab_outer.cc", 10);
        OnAcquire(&dummy_b, LockRank::kTestPeerB, /*shared=*/false,
                  "ab_inner.cc", 20);
        OnRelease(&dummy_b);
        OnRelease(&dummy_a);
        OnAcquire(&dummy_b, LockRank::kTestPeerB, /*shared=*/false,
                  "ba_outer.cc", 30);
        OnAcquire(&dummy_a, LockRank::kTestPeerA, /*shared=*/false,
                  "ba_inner.cc", 40);
      },
      "lock-order cycle detected.*"
      "new edge: kTestPeerB -> kTestPeerA.*"
      "acquiring: kTestPeerA at ba_inner\\.cc:40.*"
      "while holding: kTestPeerB.*acquired at ba_outer\\.cc:30.*"
      "completing cycle:.*kTestPeerA -> kTestPeerB.*"
      "held at ab_outer\\.cc:10.*acquired at ab_inner\\.cc:20");
}

TEST(LockdepTest, EdgeGraphDumpsObservedEdgesAsJson) {
  // Record a legal production edge, then dump and check the JSON names
  // the classes, orders, and first-observed sites.
  OnAcquire(&dummy_a, LockRank::kTestHarness, /*shared=*/false,
            "dump_held.cc", 7);
  OnAcquire(&dummy_b, LockRank::kIndexWriter, /*shared=*/false,
            "dump_acq.cc", 8);
  OnRelease(&dummy_b);
  OnRelease(&dummy_a);
  EXPECT_GE(ObservedEdgeCountForTesting(), 1u);

  const std::string path =
      ::testing::TempDir() + "/lockdep_edges_test.json";
  ASSERT_TRUE(WriteEdgesJson(path.c_str()));
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  EXPECT_NE(json.find("\"from\": \"kTestHarness\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"to\": \"kIndexWriter\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"from_order\": 5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"to_order\": 20"), std::string::npos) << json;
  std::remove(path.c_str());
}

#if defined(VIST_DEADLOCK_DEBUG) && VIST_DEADLOCK_DEBUG

TEST(LockdepWrapperTest, RealMutexesReportThroughHooks) {
  Mutex outer{LockRank::kTestHarness};
  SharedMutex inner{LockRank::kIndexWriter};
  {
    MutexLock outer_lock(outer);
    EXPECT_EQ(HeldLockCountForTesting(), 1u);
    ReaderLock inner_lock(inner);
    EXPECT_EQ(HeldLockCountForTesting(), 2u);
  }
  EXPECT_EQ(HeldLockCountForTesting(), 0u);
}

TEST(LockdepWrapperDeathTest, InvertedRealAcquisitionAborts) {
  // The acceptance scenario: a deliberately inverted acquisition through
  // the real wrappers — shard first, then the index writer lock — must
  // abort naming this file for both sites.
  Mutex shard{LockRank::kBufferPoolShard};
  SharedMutex index{LockRank::kIndexWriter};
  EXPECT_DEATH(
      {
        MutexLock shard_lock(shard);
        WriterLock index_lock(index);
      },
      "lock-rank inversion.*"
      "acquiring: kIndexWriter \\(order 20\\) at .*lockdep_test\\.cc.*"
      "while holding: kBufferPoolShard \\(order 30\\) acquired at "
      ".*lockdep_test\\.cc");
}

#else

TEST(LockdepWrapperTest, RequiresDeadlockDebugBuild) {
  GTEST_SKIP() << "vist::Mutex hooks need -DVIST_DEADLOCK_DEBUG=ON";
}

#endif  // VIST_DEADLOCK_DEBUG

}  // namespace
}  // namespace lockdep
}  // namespace vist
