#include "vist/scope.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "vist/schema_stats.h"
#include "vist/scope_allocator.h"

namespace vist {
namespace {

TEST(ScopeTest, RecordRoundTrip) {
  NodeRecord record;
  record.size = 1234567;
  record.next_free = 42;
  record.seq_cursor = 1000000;
  record.k = 7;
  record.refcount = 3;
  std::string encoded = EncodeNodeRecord(record);
  NodeRecord decoded;
  ASSERT_TRUE(DecodeNodeRecord(encoded, &decoded));
  EXPECT_EQ(decoded.size, record.size);
  EXPECT_EQ(decoded.next_free, record.next_free);
  EXPECT_EQ(decoded.seq_cursor, record.seq_cursor);
  EXPECT_EQ(decoded.k, record.k);
  EXPECT_EQ(decoded.refcount, record.refcount);
  // n and parent_n travel in the entry key, not the record payload.
}

TEST(ScopeTest, DecodeRejectsTruncatedAndTrailing) {
  NodeRecord record;
  record.size = kMaxScope - 1;
  std::string encoded = EncodeNodeRecord(record);
  NodeRecord out;
  EXPECT_FALSE(
      DecodeNodeRecord(Slice(encoded.data(), encoded.size() - 1), &out));
  encoded.push_back('x');
  EXPECT_FALSE(DecodeNodeRecord(encoded, &out));
}

TEST(ScopeTest, ContainsDescendant) {
  Scope scope{100, 50};
  EXPECT_FALSE(scope.ContainsDescendant(100));  // the node itself
  EXPECT_TRUE(scope.ContainsDescendant(101));
  EXPECT_TRUE(scope.ContainsDescendant(149));
  EXPECT_FALSE(scope.ContainsDescendant(150));
  EXPECT_FALSE(scope.ContainsDescendant(99));
}

NodeRecord FreshParent(const ScopeAllocator& allocator, uint64_t n,
                       uint64_t size) {
  NodeRecord record;
  record.n = n;
  record.size = size;
  allocator.InitRecord(&record);
  return record;
}

TEST(UniformAllocatorTest, Figure8GeometricShrink) {
  // λ=2 (Fig. 8): each child takes half the remaining scope.
  UniformScopeAllocator allocator(2, /*reserve_divisor=*/1024);
  NodeRecord parent = FreshParent(allocator, 0, 1 << 20);
  Scope c1 = allocator.AllocateChild(&parent, 1, 2, 1);
  Scope c2 = allocator.AllocateChild(&parent, 1, 3, 1);
  Scope c3 = allocator.AllocateChild(&parent, 1, 4, 1);
  ASSERT_TRUE(c1.valid() && c2.valid() && c3.valid());
  EXPECT_EQ(c1.n, 1u);
  // Each child is roughly half the size of the previous.
  EXPECT_NEAR(static_cast<double>(c2.size) / c1.size, 0.5, 0.01);
  EXPECT_NEAR(static_cast<double>(c3.size) / c2.size, 0.5, 0.01);
  EXPECT_EQ(parent.k, 3u);
}

TEST(UniformAllocatorTest, ChildrenAreDisjointAndNested) {
  UniformScopeAllocator allocator(4, 16);
  NodeRecord parent = FreshParent(allocator, 1000, 1 << 16);
  std::vector<Scope> scopes;
  for (int i = 0; i < 20; ++i) {
    Scope scope = allocator.AllocateChild(&parent, 1, 2 + i, 1);
    if (!scope.valid()) break;
    scopes.push_back(scope);
  }
  ASSERT_GT(scopes.size(), 10u);
  for (size_t i = 0; i < scopes.size(); ++i) {
    // Nested strictly inside the parent's scope, past its own label.
    EXPECT_GT(scopes[i].n, parent.n);
    EXPECT_LE(scopes[i].n + scopes[i].size, parent.n + parent.size);
    // Disjoint from every other sibling.
    for (size_t j = i + 1; j < scopes.size(); ++j) {
      const bool disjoint =
          scopes[i].n + scopes[i].size <= scopes[j].n ||
          scopes[j].n + scopes[j].size <= scopes[i].n;
      EXPECT_TRUE(disjoint) << i << " vs " << j;
    }
  }
}

TEST(UniformAllocatorTest, UnderflowWhenScopeTiny) {
  UniformScopeAllocator allocator(16, 16);
  NodeRecord parent = FreshParent(allocator, 5, 20);
  // remaining ≈ 18, 18/16 = 1 < minimum of 2: underflow immediately.
  Scope scope = allocator.AllocateChild(&parent, 1, 2, 1);
  EXPECT_FALSE(scope.valid());
}

TEST(UniformAllocatorTest, ReserveIsNeverAllocated) {
  UniformScopeAllocator allocator(2, /*reserve_divisor=*/4);
  NodeRecord parent = FreshParent(allocator, 0, 1000);
  const uint64_t usable_end = allocator.UsableEnd(parent);
  EXPECT_EQ(usable_end, 750u);  // 1/4 reserved
  for (int i = 0; i < 64; ++i) {
    Scope scope = allocator.AllocateChild(&parent, 1, 2 + i, 1);
    if (!scope.valid()) break;
    EXPECT_LE(scope.n + scope.size, usable_end);
  }
}

class StatisticalAllocatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Sample sequences over context symbol 10 with successors
    // (20, depth 1) twice and (30, depth 1) once, so slots are 2:1.
    Sequence s1 = {{10, {}}, {20, {10}}};
    Sequence s2 = {{10, {}}, {20, {10}}};
    Sequence s3 = {{10, {}}, {30, {10}}};
    stats_.CollectFrom(s1);
    stats_.CollectFrom(s2);
    stats_.CollectFrom(s3);
  }
  SchemaStats stats_;
};

TEST_F(StatisticalAllocatorTest, SlotsProportionalToProbability) {
  StatisticalScopeAllocator allocator(&stats_, 8, /*reserve_divisor=*/1024,
                                      /*other_divisor=*/8);
  NodeRecord parent = FreshParent(allocator, 0, 1 << 20);
  Scope to20 = allocator.AllocateChild(&parent, 10, 20, 1);
  Scope to30 = allocator.AllocateChild(&parent, 10, 30, 1);
  ASSERT_TRUE(to20.valid() && to30.valid());
  // 2:1 successor counts => roughly 2:1 slots.
  EXPECT_NEAR(static_cast<double>(to20.size) / to30.size, 2.0, 0.1);
  // Disjoint slots.
  EXPECT_TRUE(to20.n + to20.size <= to30.n || to30.n + to30.size <= to20.n);
}

TEST_F(StatisticalAllocatorTest, SlotsAreDeterministic) {
  StatisticalScopeAllocator allocator(&stats_, 8, 1024, 8);
  NodeRecord parent1 = FreshParent(allocator, 0, 1 << 20);
  NodeRecord parent2 = FreshParent(allocator, 0, 1 << 20);
  // Allocation order must not change the slot of a known successor.
  Scope a = allocator.AllocateChild(&parent1, 10, 30, 1);
  allocator.AllocateChild(&parent2, 10, 20, 1);
  Scope b = allocator.AllocateChild(&parent2, 10, 30, 1);
  ASSERT_TRUE(a.valid() && b.valid());
  EXPECT_EQ(a.n, b.n);
  EXPECT_EQ(a.size, b.size);
}

TEST_F(StatisticalAllocatorTest, SameSymbolDifferentDepthGetsOwnSlot) {
  Sequence deep = {{10, {}}, {20, {5, 10}}};
  stats_.CollectFrom(deep);
  StatisticalScopeAllocator allocator(&stats_, 8, 1024, 8);
  NodeRecord parent = FreshParent(allocator, 0, 1 << 20);
  Scope d1 = allocator.AllocateChild(&parent, 10, 20, 1);
  Scope d2 = allocator.AllocateChild(&parent, 10, 20, 2);
  ASSERT_TRUE(d1.valid() && d2.valid());
  EXPECT_TRUE(d1.n + d1.size <= d2.n || d2.n + d2.size <= d1.n);
}

TEST_F(StatisticalAllocatorTest, UnseenSymbolsUseOtherBucket) {
  StatisticalScopeAllocator allocator(&stats_, 8, 1024, 8);
  NodeRecord parent = FreshParent(allocator, 0, 1 << 20);
  Scope known = allocator.AllocateChild(&parent, 10, 20, 1);
  Scope unseen1 = allocator.AllocateChild(&parent, 10, 777, 1);
  Scope unseen2 = allocator.AllocateChild(&parent, 10, 888, 1);
  ASSERT_TRUE(known.valid() && unseen1.valid() && unseen2.valid());
  // Unseen symbols land above the known region and are mutually disjoint.
  EXPECT_GT(unseen1.n, known.n + known.size);
  EXPECT_TRUE(unseen1.n + unseen1.size <= unseen2.n ||
              unseen2.n + unseen2.size <= unseen1.n);
}

TEST_F(StatisticalAllocatorTest, UnknownContextFallsBackToUniform) {
  StatisticalScopeAllocator allocator(&stats_, 8, 1024, 8);
  NodeRecord parent = FreshParent(allocator, /*n=*/0, 1 << 20);
  Scope scope = allocator.AllocateChild(&parent, /*parent_symbol=*/999, 1, 1);
  EXPECT_TRUE(scope.valid());
}

TEST(SchemaStatsTest, EncodeDecodeRoundTrip) {
  SchemaStats stats;
  Sequence s = {{1, {}}, {2, {1}}, {3, {1, 2}}};
  stats.CollectFrom(s);
  stats.CollectFrom(s);
  const std::string blob = stats.Encode();
  auto loaded = SchemaStats::Decode(blob);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_samples(), 2u);
  const auto* successors = loaded->Lookup(1);
  ASSERT_NE(successors, nullptr);
  EXPECT_EQ(successors->total, 2u);
  ASSERT_EQ(successors->counts.size(), 1u);
  EXPECT_EQ(successors->counts[0].first.symbol, 2u);
  EXPECT_EQ(successors->counts[0].second, 2u);
  EXPECT_EQ(loaded->Lookup(42), nullptr);
  EXPECT_EQ(loaded->Encode(), blob);
  // Truncated or padded blobs are Corruption, never a partial decode.
  EXPECT_TRUE(SchemaStats::Decode(Slice(blob.data(), blob.size() - 1))
                  .status()
                  .IsCorruption());
  EXPECT_TRUE(SchemaStats::Decode(blob + "x").status().IsCorruption());
}

}  // namespace
}  // namespace vist
