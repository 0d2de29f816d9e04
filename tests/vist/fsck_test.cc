// Seeded-corruption tests for the offline checker: every class of damage
// fsck promises to find (flipped bytes on every data page, a truncated
// tail, a freelist cycle, cross-linked pages) must produce a non-empty
// problem list, and a freshly built index must come back clean. A
// malformed meta record is the one damage left to VistIndex::Open.

#include "vist/fsck.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/coding.h"
#include "storage/pager.h"
#include "storage/versioned_store.h"
#include "vist/manifest.h"
#include "vist/vist_index.h"
#include "xml/parser.h"

namespace vist {
namespace {

constexpr uint32_t kPageSize = 512;

class FsckTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("vist_fsck_test_" + std::to_string(getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  // Builds an index with enough volume to have a multi-page tree and, via
  // deletions, a populated freelist.
  void BuildIndex(int docs = 24, int deletes = 12) {
    VistOptions options;
    options.page_size = kPageSize;
    auto index = VistIndex::Create(dir_, options);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    for (int i = 1; i <= docs; ++i) {
      auto doc = xml::Parse(DocText(i));
      ASSERT_TRUE(doc.ok());
      ASSERT_TRUE((*index)->InsertDocument(*doc->root(), i).ok());
    }
    for (int i = 1; i <= deletes; ++i) {
      auto doc = xml::Parse(DocText(i));
      ASSERT_TRUE(doc.ok());
      ASSERT_TRUE((*index)->DeleteDocument(*doc->root(), i).ok());
    }
    ASSERT_TRUE((*index)->Flush().ok());
  }

  static std::string DocText(int i) {
    const std::string tag = "u" + std::to_string(i);
    return "<doc><" + tag + "><leaf>text" + std::to_string(i) + "</leaf></" +
           tag + "></doc>";
  }

  std::string DbPath() { return PageFilePath(dir_); }

  uint64_t FileSize() { return std::filesystem::file_size(DbPath()); }

  std::string ReadRange(uint64_t offset, size_t n) {
    std::ifstream f(DbPath(), std::ios::binary);
    EXPECT_TRUE(f.is_open());
    f.seekg(static_cast<std::streamoff>(offset));
    std::string data(n, '\0');
    f.read(data.data(), static_cast<std::streamsize>(n));
    EXPECT_TRUE(f.good());
    return data;
  }

  void WriteRange(uint64_t offset, const std::string& bytes) {
    std::fstream f(DbPath(), std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(f.good());
  }

  // Rewrites page `id` with `page` plus a freshly computed valid trailer —
  // for seeding *logical* damage that checksums alone cannot catch.
  void WritePageWithValidChecksum(PageId id, std::string page) {
    page.resize(kPageSize, '\0');
    char trailer[8];
    EncodeFixed64LE(trailer, ComputePageChecksum(id, page.data(), kPageSize));
    page.replace(kPageSize - kPageTrailerSize, kPageTrailerSize, trailer, 8);
    WriteRange(id * kPageSize, page);
  }

  std::string dir_;
};

TEST_F(FsckTest, CleanIndexPasses) {
  BuildIndex();
  auto report = RunFsck(dir_);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok()) << report->Summary();
  EXPECT_GT(report->pages, 2u);
  EXPECT_GT(report->btree_pages, 0u);
  EXPECT_GT(report->free_pages, 0u) << "workload did not exercise deletes";
  EXPECT_EQ(report->leaked_pages, 0u);
  EXPECT_NE(report->Summary().find("fsck.status: clean"), std::string::npos);
}

TEST_F(FsckTest, DetectsOneFlippedByteOnEveryDataPage) {
  BuildIndex();
  const uint64_t pages = FileSize() / kPageSize;
  ASSERT_GT(pages, 2u);
  for (PageId id = 1; id < pages; ++id) {
    SCOPED_TRACE("flipped byte on page " + std::to_string(id));
    const uint64_t offset = id * kPageSize + kPageSize / 2;
    const std::string saved = ReadRange(offset, 1);
    WriteRange(offset, std::string(1, saved[0] ^ 0x40));
    auto report = RunFsck(dir_);
    ASSERT_TRUE(report.ok());
    EXPECT_FALSE(report->ok()) << "flip on page " << id << " undetected";
    EXPECT_GE(report->checksum_failures, 1u);
    WriteRange(offset, saved);  // restore for the next page's run
  }
  auto report = RunFsck(dir_);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->Summary();
}

TEST_F(FsckTest, DetectsTruncatedTail) {
  BuildIndex();
  std::filesystem::resize_file(DbPath(), FileSize() - kPageSize / 2);
  auto report = RunFsck(dir_);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->ok());
  EXPECT_NE(report->Summary().find("truncated"), std::string::npos)
      << report->Summary();
}

TEST_F(FsckTest, DetectsFreelistCycle) {
  BuildIndex();
  // Find the freelist head from the header, then point that page's next
  // pointer back at itself (with a valid checksum, so only the freelist
  // walk can notice).
  PageId head = DecodeFixed64LE(ReadRange(20, 8).data());
  ASSERT_NE(head, kInvalidPageId) << "no free pages to corrupt";
  std::string page = ReadRange(head * kPageSize, kPageSize);
  EncodeFixed64LE(page.data(), head);  // self-cycle
  WritePageWithValidChecksum(head, page);

  auto report = RunFsck(dir_);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->ok());
  EXPECT_NE(report->Summary().find("cycle"), std::string::npos)
      << report->Summary();
}

TEST_F(FsckTest, DetectsPageBothFreeAndReachable) {
  BuildIndex();
  // Repoint the freelist head at a page that is reachable from a tree:
  // meta slot 0 (header offset 28) holds the entry-tree root.
  PageId root = DecodeFixed64LE(ReadRange(28, 8).data());
  ASSERT_NE(root, kInvalidPageId);
  std::string header = ReadRange(0, kPageSize);
  EncodeFixed64LE(header.data() + 20, root);
  WritePageWithValidChecksum(0, header);

  auto report = RunFsck(dir_);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->ok());
  EXPECT_NE(report->Summary().find("also reachable"), std::string::npos)
      << report->Summary();
}

TEST_F(FsckTest, DetectsLeakedPage) {
  BuildIndex();
  // Cutting the freelist chain strands every page behind the head.
  PageId head = DecodeFixed64LE(ReadRange(20, 8).data());
  ASSERT_NE(head, kInvalidPageId);
  std::string page = ReadRange(head * kPageSize, kPageSize);
  ASSERT_NE(DecodeFixed64LE(page.data()), kInvalidPageId)
      << "freelist too short to cut";
  EncodeFixed64LE(page.data(), kInvalidPageId);
  WritePageWithValidChecksum(head, page);

  auto report = RunFsck(dir_);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->ok());
  EXPECT_GT(report->leaked_pages, 0u) << report->Summary();
}

TEST_F(FsckTest, MalformedMetaRecordIsCorruptionOnOpen) {
  BuildIndex();
  // Overwrite the options record in a committed transaction of its own, so
  // the page file stays structurally sound...
  {
    auto store =
        VersionedStore::Open(DbPath(), StoreOptions(), /*create=*/false);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    auto meta = (*store)->OpenTree(kMetaTreeSlot);
    ASSERT_TRUE(meta.ok()) << meta.status().ToString();
    ASSERT_TRUE((*store)
                    ->Write(/*epoch=*/1,
                            [&] { return (*meta)->Put(kOptionsKey, "junk"); })
                    .ok());
    ASSERT_TRUE((*store)->Flush().ok());
  }
  auto report = RunFsck(dir_);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok()) << report->Summary();
  // ...which fsck's walk accepts, while Open cannot decode the record. The
  // damage is Corruption, not an absent index, so Create refuses it too.
  auto index = VistIndex::Open(dir_, VistOptions());
  ASSERT_FALSE(index.ok());
  EXPECT_TRUE(index.status().IsCorruption()) << index.status().ToString();
  auto created = VistIndex::Create(dir_, VistOptions());
  ASSERT_FALSE(created.ok());
  EXPECT_TRUE(created.status().IsCorruption()) << created.status().ToString();
}

}  // namespace
}  // namespace vist
