#include "storage/pager.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/coding.h"

namespace vist {
namespace {

class PagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("vist_pager_test_" + std::to_string(getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "pages.db").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
  std::string path_;
};

TEST_F(PagerTest, RejectsBadPageSize) {
  PagerOptions opts;
  opts.page_size = 1000;  // not a power of two
  EXPECT_FALSE(Pager::Open(path_, opts).ok());
  opts.page_size = 256;  // too small
  EXPECT_FALSE(Pager::Open(path_, opts).ok());
  opts.page_size = 65536;  // too large for 16-bit offsets
  EXPECT_FALSE(Pager::Open(path_, opts).ok());
}

TEST_F(PagerTest, AllocateWriteReadRoundTrip) {
  PagerOptions opts;
  auto pager = Pager::Open(path_, opts);
  ASSERT_TRUE(pager.ok()) << pager.status().ToString();
  auto id = (*pager)->AllocatePage();
  ASSERT_TRUE(id.ok());
  EXPECT_NE(*id, kInvalidPageId);

  std::vector<char> buf(opts.page_size, 'A');
  ASSERT_TRUE((*pager)->WritePage(*id, buf.data()).ok());
  std::vector<char> readback(opts.page_size, 0);
  ASSERT_TRUE((*pager)->ReadPage(*id, readback.data()).ok());
  // The last kPageTrailerSize bytes belong to the pager (checksum).
  const size_t usable = (*pager)->usable_page_size();
  EXPECT_EQ(std::vector<char>(buf.begin(), buf.begin() + usable),
            std::vector<char>(readback.begin(), readback.begin() + usable));
}

TEST_F(PagerTest, ReadRejectsOutOfRange) {
  auto pager = Pager::Open(path_, PagerOptions());
  ASSERT_TRUE(pager.ok());
  std::vector<char> buf(4096);
  EXPECT_TRUE((*pager)->ReadPage(0, buf.data()).IsInvalidArgument());
  EXPECT_TRUE((*pager)->ReadPage(99, buf.data()).IsInvalidArgument());
}

TEST_F(PagerTest, FreelistReusesPages) {
  auto pager = Pager::Open(path_, PagerOptions());
  ASSERT_TRUE(pager.ok());
  auto a = (*pager)->AllocatePage();
  auto b = (*pager)->AllocatePage();
  auto c = (*pager)->AllocatePage();
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  const uint64_t pages_before = (*pager)->page_count();

  ASSERT_TRUE((*pager)->FreePage(*b).ok());
  ASSERT_TRUE((*pager)->FreePage(*a).ok());
  // LIFO reuse: last freed comes back first, and the file does not grow.
  auto r1 = (*pager)->AllocatePage();
  auto r2 = (*pager)->AllocatePage();
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(*r1, *a);
  EXPECT_EQ(*r2, *b);
  EXPECT_EQ((*pager)->page_count(), pages_before);
}

TEST_F(PagerTest, MetaSlotsAndHeaderSurviveReopen) {
  PageId data_page;
  {
    auto pager = Pager::Open(path_, PagerOptions());
    ASSERT_TRUE(pager.ok());
    auto id = (*pager)->AllocatePage();
    ASSERT_TRUE(id.ok());
    data_page = *id;
    ASSERT_TRUE((*pager)->SetMetaSlot(3, data_page).ok());
    std::vector<char> buf(4096, 'Z');
    ASSERT_TRUE((*pager)->WritePage(data_page, buf.data()).ok());
    ASSERT_TRUE((*pager)->Sync().ok());
  }
  {
    auto pager = Pager::Open(path_, PagerOptions());
    ASSERT_TRUE(pager.ok()) << pager.status().ToString();
    EXPECT_EQ((*pager)->GetMetaSlot(3), data_page);
    EXPECT_EQ((*pager)->GetMetaSlot(0), kInvalidPageId);
    std::vector<char> buf(4096);
    ASSERT_TRUE((*pager)->ReadPage(data_page, buf.data()).ok());
    EXPECT_EQ(buf[0], 'Z');
    EXPECT_EQ(buf[(*pager)->usable_page_size() - 1], 'Z');
  }
}

TEST_F(PagerTest, FreelistSurvivesReopen) {
  PageId freed;
  {
    auto pager = Pager::Open(path_, PagerOptions());
    ASSERT_TRUE(pager.ok());
    auto a = (*pager)->AllocatePage();
    ASSERT_TRUE(a.ok());
    freed = *a;
    ASSERT_TRUE((*pager)->FreePage(freed).ok());
    // Destructor persists the header.
  }
  {
    auto pager = Pager::Open(path_, PagerOptions());
    ASSERT_TRUE(pager.ok());
    auto again = (*pager)->AllocatePage();
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(*again, freed);
  }
}

TEST_F(PagerTest, PageSizeAdoptedOnReopen) {
  PageId data_page;
  {
    PagerOptions opts;
    opts.page_size = 1024;
    auto pager = Pager::Open(path_, opts);
    ASSERT_TRUE(pager.ok());
    auto id = (*pager)->AllocatePage();
    ASSERT_TRUE(id.ok());
    data_page = *id;
    std::vector<char> buf(1024, 'Z');
    ASSERT_TRUE((*pager)->WritePage(data_page, buf.data()).ok());
    ASSERT_TRUE((*pager)->Sync().ok());
  }
  // The file knows its own page size; the option only sizes new files.
  PagerOptions opts;
  opts.page_size = 8192;
  auto reopened = Pager::Open(path_, opts);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->page_size(), 1024u);
  std::vector<char> buf(1024);
  ASSERT_TRUE((*reopened)->ReadPage(data_page, buf.data()).ok());
  EXPECT_EQ(buf[0], 'Z');
}

TEST_F(PagerTest, OutOfRangeStoredPageSizeIsCorruption) {
  { ASSERT_TRUE(Pager::Open(path_, PagerOptions()).ok()); }
  {
    // page_size sits at header offset 8; 1000 is not a power of two.
    FILE* f = fopen(path_.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    char stored[4];
    EncodeFixed32LE(stored, 1000);
    ASSERT_EQ(fseek(f, 8, SEEK_SET), 0);
    ASSERT_EQ(fwrite(stored, 1, sizeof(stored), f), sizeof(stored));
    fclose(f);
  }
  auto reopened = Pager::Open(path_, PagerOptions());
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsCorruption())
      << reopened.status().ToString();
  EXPECT_NE(reopened.status().message().find("page_size"), std::string::npos)
      << reopened.status().ToString();
}

TEST_F(PagerTest, OpenWithoutCreateMakesNoFile) {
  PagerOptions opts;
  opts.create = false;
  auto missing = Pager::Open(path_, opts);
  ASSERT_FALSE(missing.ok());
  EXPECT_TRUE(missing.status().IsNotFound()) << missing.status().ToString();
  EXPECT_FALSE(std::filesystem::exists(path_));
  { std::ofstream empty(path_); }
  auto empty = Pager::Open(path_, opts);
  ASSERT_FALSE(empty.ok());
  EXPECT_TRUE(empty.status().IsNotFound()) << empty.status().ToString();
  EXPECT_EQ(std::filesystem::file_size(path_), 0u);
}

TEST_F(PagerTest, CorruptMagicDetected) {
  { ASSERT_TRUE(Pager::Open(path_, PagerOptions()).ok()); }
  {
    FILE* f = fopen(path_.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    fputc('X', f);
    fclose(f);
  }
  auto reopened = Pager::Open(path_, PagerOptions());
  EXPECT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsCorruption());
}

}  // namespace
}  // namespace vist
