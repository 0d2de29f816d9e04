#include "storage/page.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace vist {
namespace {

constexpr uint32_t kPageSize = 4096;

class PageTest : public ::testing::Test {
 protected:
  PageTest() : buf_(kPageSize, 0), page_(buf_.data(), kPageSize) {}

  std::vector<char> buf_;
  NodePage page_;
};

TEST_F(PageTest, InitLeaf) {
  page_.Init(kLeafPage);
  EXPECT_TRUE(page_.is_leaf());
  EXPECT_EQ(page_.num_cells(), 0);
  EXPECT_EQ(page_.next(), kInvalidPageId);
  EXPECT_GT(page_.FreeSpace(), kPageSize - 64);
}

TEST_F(PageTest, LeafInsertAndReadBack) {
  page_.Init(kLeafPage);
  ASSERT_TRUE(page_.InsertLeaf(0, "banana", "yellow"));
  ASSERT_TRUE(page_.InsertLeaf(0, "apple", "red"));
  ASSERT_TRUE(page_.InsertLeaf(2, "cherry", "dark"));
  ASSERT_EQ(page_.num_cells(), 3);
  EXPECT_EQ(page_.Key(0).ToString(), "apple");
  EXPECT_EQ(page_.Value(0).ToString(), "red");
  EXPECT_EQ(page_.Key(1).ToString(), "banana");
  EXPECT_EQ(page_.Value(1).ToString(), "yellow");
  EXPECT_EQ(page_.Key(2).ToString(), "cherry");
  EXPECT_EQ(page_.Value(2).ToString(), "dark");
}

TEST_F(PageTest, EmptyKeyAndValueSupported) {
  page_.Init(kLeafPage);
  ASSERT_TRUE(page_.InsertLeaf(0, "", ""));
  EXPECT_EQ(page_.Key(0).size(), 0u);
  EXPECT_EQ(page_.Value(0).size(), 0u);
}

TEST_F(PageTest, LowerBoundSemantics) {
  page_.Init(kLeafPage);
  ASSERT_TRUE(page_.InsertLeaf(0, "b", "1"));
  ASSERT_TRUE(page_.InsertLeaf(1, "d", "2"));
  ASSERT_TRUE(page_.InsertLeaf(2, "f", "3"));
  EXPECT_EQ(page_.LowerBound("a"), 0);
  EXPECT_EQ(page_.LowerBound("b"), 0);
  EXPECT_EQ(page_.LowerBound("c"), 1);
  EXPECT_EQ(page_.LowerBound("d"), 1);
  EXPECT_EQ(page_.LowerBound("e"), 2);
  EXPECT_EQ(page_.LowerBound("f"), 2);
  EXPECT_EQ(page_.LowerBound("g"), 3);
}

TEST_F(PageTest, RemoveShiftsSlots) {
  page_.Init(kLeafPage);
  ASSERT_TRUE(page_.InsertLeaf(0, "a", "1"));
  ASSERT_TRUE(page_.InsertLeaf(1, "b", "2"));
  ASSERT_TRUE(page_.InsertLeaf(2, "c", "3"));
  page_.Remove(1);
  ASSERT_EQ(page_.num_cells(), 2);
  EXPECT_EQ(page_.Key(0).ToString(), "a");
  EXPECT_EQ(page_.Key(1).ToString(), "c");
  EXPECT_EQ(page_.Value(1).ToString(), "3");
}

TEST_F(PageTest, FillUntilFullThenDefragmentRecoversSpace) {
  page_.Init(kLeafPage);
  int inserted = 0;
  while (true) {
    std::string key = "key_" + std::to_string(10000 + inserted);
    if (!page_.InsertLeaf(page_.LowerBound(key), key,
                          std::string(32, 'v'))) {
      break;
    }
    ++inserted;
  }
  EXPECT_GT(inserted, 50);
  const int n = page_.num_cells();
  // Remove every other cell; the freed bytes are fragmentation.
  for (int i = n - 1; i >= 0; i -= 2) page_.Remove(i);
  // Inserts still succeed: InsertCell defragments when needed.
  int reinserted = 0;
  while (true) {
    std::string key = "zzz_" + std::to_string(10000 + reinserted);
    if (!page_.InsertLeaf(page_.LowerBound(key), key,
                          std::string(32, 'w'))) {
      break;
    }
    ++reinserted;
  }
  EXPECT_GT(reinserted, inserted / 4);
  // All keys still readable and ordered.
  for (int i = 1; i < page_.num_cells(); ++i) {
    EXPECT_LT(page_.Key(i - 1).Compare(page_.Key(i)), 0);
  }
}

TEST_F(PageTest, InternalCellsCarryChildren) {
  page_.Init(kInternalPage);
  EXPECT_FALSE(page_.is_leaf());
  page_.set_next(77);  // leftmost child
  ASSERT_TRUE(page_.InsertInternal(0, "m", 100));
  ASSERT_TRUE(page_.InsertInternal(1, "t", 200));
  EXPECT_EQ(page_.next(), 77u);
  EXPECT_EQ(page_.Child(0), 100u);
  EXPECT_EQ(page_.Child(1), 200u);
  page_.SetChild(0, 150);
  EXPECT_EQ(page_.Child(0), 150u);
  EXPECT_EQ(page_.Key(0).ToString(), "m");
}

TEST_F(PageTest, NextPointerPersistsAcrossInserts) {
  page_.Init(kLeafPage);
  page_.set_next(5);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(page_.InsertLeaf(i, "k" + std::to_string(100 + i), "v"));
  }
  EXPECT_EQ(page_.next(), 5u);
}

TEST_F(PageTest, ValidateAcceptsWellFormedPages) {
  page_.Init(kLeafPage);
  EXPECT_TRUE(page_.Validate());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(page_.InsertLeaf(i, "k" + std::to_string(100 + i), "value"));
  }
  EXPECT_TRUE(page_.Validate());
  page_.Remove(10);
  page_.Remove(20);
  EXPECT_TRUE(page_.Validate());

  NodePage internal(buf_.data(), kPageSize);
  internal.Init(kInternalPage);
  internal.set_next(5);
  ASSERT_TRUE(internal.InsertInternal(0, "m", 9));
  EXPECT_TRUE(internal.Validate());
}

TEST_F(PageTest, ValidateRejectsCorruption) {
  page_.Init(kLeafPage);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(page_.InsertLeaf(i, "k" + std::to_string(100 + i), "value"));
  }
  // Bad type byte.
  {
    std::vector<char> copy = buf_;
    copy[0] = 7;
    EXPECT_FALSE(NodePage(copy.data(), kPageSize).Validate());
  }
  // Cell count pointing past the content area.
  {
    std::vector<char> copy = buf_;
    copy[2] = static_cast<char>(0xFF);
    copy[3] = static_cast<char>(0x7F);
    EXPECT_FALSE(NodePage(copy.data(), kPageSize).Validate());
  }
  // Slot offset outside the page.
  {
    std::vector<char> copy = buf_;
    copy[kPageHeaderSize] = static_cast<char>(0xFF);
    copy[kPageHeaderSize + 1] = static_cast<char>(0xFF);
    EXPECT_FALSE(NodePage(copy.data(), kPageSize).Validate());
  }
  // A cell whose declared key length runs past the page end.
  {
    std::vector<char> copy = buf_;
    NodePage probe(copy.data(), kPageSize);
    // Overwrite the first cell's leading varint with a huge length.
    const char* key_slice = probe.Key(0).data();
    // The varint starts a byte or two before the key bytes.
    char* cell_start = const_cast<char*>(key_slice) - 2;
    cell_start[0] = static_cast<char>(0xFF);
    cell_start[1] = static_cast<char>(0x7F);
    EXPECT_FALSE(probe.Validate());
  }
}

TEST_F(PageTest, MaxCellSizeGuaranteesFourCells) {
  page_.Init(kLeafPage);
  const size_t max_cell = NodePage::MaxCellSize(kPageSize);
  const std::string key(16, 'k');
  const std::string value(max_cell - 16 - 10, 'v');
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(page_.InsertLeaf(i, key + std::to_string(i), value))
        << "cell " << i;
  }
}

}  // namespace
}  // namespace vist
