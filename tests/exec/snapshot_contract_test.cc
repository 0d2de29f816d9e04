// The QueryOptions::snapshot contract (exec/queryable_index.h), checked on
// every engine that issues snapshots — VistIndex, PathIndex and
// NodeIndex:
//
//   * a query pinned to an explicit snapshot keeps returning that
//     snapshot's answer across later inserts and deletes;
//   * QueryOptions own their pin: a copy of them keeps the snapshot
//     readable after every other handle to it is gone;
//   * a snapshot the index did not issue — from another engine, or from
//     another instance of the same engine — is rejected with
//     InvalidArgument instead of being read.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "baseline/node_index.h"
#include "baseline/path_index.h"
#include "vist/vist_index.h"
#include "xml/parser.h"

namespace vist {
namespace exec {
namespace {

enum class Kind { kVist, kPath, kNode };

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kVist:
      return "vist";
    case Kind::kPath:
      return "path";
    case Kind::kNode:
      return "node";
  }
  return "";
}

// All three engines over one symbol table; `index` is the one under test
// and the only one the rig mutates.
struct Rig {
  // The ViST index owns the symbol table the baselines borrow, so it is
  // declared first and destroyed last.
  std::unique_ptr<VistIndex> vist;
  std::unique_ptr<PathIndex> paths;
  std::unique_ptr<NodeIndex> nodes;
  Kind kind = Kind::kVist;
  QueryableIndex* index = nullptr;

  static std::unique_ptr<Rig> Create(const std::string& dir, Kind kind) {
    auto rig = std::make_unique<Rig>();
    rig->kind = kind;
    auto vist = VistIndex::Create(dir + "/vist", VistOptions());
    EXPECT_TRUE(vist.ok()) << vist.status().ToString();
    if (!vist.ok()) return nullptr;
    rig->vist = std::move(vist).value();
    auto paths = PathIndex::Create(dir + "/paths", rig->vist->symbols());
    auto nodes = NodeIndex::Create(dir + "/nodes", rig->vist->symbols());
    EXPECT_TRUE(paths.ok() && nodes.ok());
    if (!paths.ok() || !nodes.ok()) return nullptr;
    rig->paths = std::move(paths).value();
    rig->nodes = std::move(nodes).value();
    switch (kind) {
      case Kind::kVist:
        rig->index = rig->vist.get();
        break;
      case Kind::kPath:
        rig->index = rig->paths.get();
        break;
      case Kind::kNode:
        rig->index = rig->nodes.get();
        break;
    }
    return rig;
  }

  Status Apply(const xml::Node& root, uint64_t doc_id, bool insert) {
    const Sequence sequence = BuildSequence(root, vist->symbols());
    switch (kind) {
      case Kind::kVist:
        return insert ? vist->InsertDocument(root, doc_id)
                      : vist->DeleteDocument(root, doc_id);
      case Kind::kPath:
        return insert ? paths->InsertSequence(sequence, doc_id)
                      : paths->DeleteSequence(sequence, doc_id);
      case Kind::kNode:
        return insert ? nodes->InsertDocument(root, doc_id)
                      : nodes->DeleteDocument(root, doc_id);
    }
    return Status::OK();
  }

  /// A snapshot from a different engine of this rig.
  std::shared_ptr<const Snapshot> OtherEngineSnapshot() {
    QueryableIndex* other = kind == Kind::kVist
                                ? static_cast<QueryableIndex*>(nodes.get())
                                : static_cast<QueryableIndex*>(vist.get());
    auto snap = other->GetSnapshot();
    EXPECT_TRUE(snap.ok());
    return snap.ok() ? *snap : nullptr;
  }
};

xml::Document Doc(uint64_t id) {
  auto doc = xml::Parse("<doc><item>v" + std::to_string(id) +
                        "</item><leaf/></doc>");
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  return std::move(doc).value();
}

class SnapshotContractTest : public ::testing::TestWithParam<Kind> {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("vist_snapshot_contract_" + std::to_string(getpid()) + "_" +
             KindName(GetParam())))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_P(SnapshotContractTest, ExplicitSnapshotKeepsItsPinnedAnswer) {
  auto rig = Rig::Create(dir_ + "/a", GetParam());
  ASSERT_NE(rig, nullptr);
  std::vector<xml::Document> docs;
  for (uint64_t id = 1; id <= 3; ++id) {
    docs.push_back(Doc(id));
    ASSERT_TRUE(rig->Apply(*docs.back().root(), id, /*insert=*/true).ok());
  }

  auto snap = rig->index->GetSnapshot();
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  QueryOptions pinned;
  pinned.snapshot = *snap;
  const std::vector<uint64_t> all = {1, 2, 3};
  auto before = rig->index->Query("/doc/leaf", pinned);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_EQ(*before, all);

  docs.push_back(Doc(4));
  ASSERT_TRUE(rig->Apply(*docs.back().root(), 4, /*insert=*/true).ok());
  ASSERT_TRUE(rig->Apply(*docs[0].root(), 1, /*insert=*/false).ok());
  ASSERT_TRUE(rig->index->Flush().ok());

  auto current = rig->index->Query("/doc/leaf");
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(*current, (std::vector<uint64_t>{2, 3, 4}));
  auto after = rig->index->Query("/doc/leaf", pinned);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(*after, all) << "the pinned snapshot moved";
  auto value = rig->index->Query("/doc/item[text()='v1']", pinned);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, (std::vector<uint64_t>{1}));
  EXPECT_LT((*snap)->epoch(), rig->index->epoch());
}

TEST_P(SnapshotContractTest, QueryOptionsCopyIsTheOnlyPinNeeded) {
  auto rig = Rig::Create(dir_ + "/a", GetParam());
  ASSERT_NE(rig, nullptr);
  std::vector<xml::Document> docs;
  for (uint64_t id = 1; id <= 3; ++id) {
    docs.push_back(Doc(id));
    ASSERT_TRUE(rig->Apply(*docs.back().root(), id, /*insert=*/true).ok());
  }
  QueryOptions copy;
  {
    auto snap = rig->index->GetSnapshot();
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    QueryOptions pinned;
    pinned.snapshot = *snap;
    copy = pinned;
  }  // the caller's handle and the original options are gone

  // Churn: every flush returns the pages no pin reaches to the freelist,
  // and the next writes reuse them.
  for (uint64_t id = 4; id <= 12; ++id) {
    docs.push_back(Doc(id));
    ASSERT_TRUE(rig->Apply(*docs.back().root(), id, /*insert=*/true).ok());
    ASSERT_TRUE(
        rig->Apply(*docs[id - 4].root(), id - 3, /*insert=*/false).ok());
    ASSERT_TRUE(rig->index->Flush().ok());
  }
  EXPECT_EQ(copy.snapshot.use_count(), 1) << "another owner holds the pin";

  auto current = rig->index->Query("/doc/leaf");
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(*current, (std::vector<uint64_t>{10, 11, 12}));
  auto pinned = rig->index->Query("/doc/leaf", copy);
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  EXPECT_EQ(*pinned, (std::vector<uint64_t>{1, 2, 3}));
  auto value = rig->index->Query("/doc/item[text()='v2']", copy);
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  EXPECT_EQ(*value, (std::vector<uint64_t>{2}));
}

TEST_P(SnapshotContractTest, ForeignSnapshotIsRejected) {
  auto rig = Rig::Create(dir_ + "/a", GetParam());
  auto twin = Rig::Create(dir_ + "/b", GetParam());
  ASSERT_NE(rig, nullptr);
  ASSERT_NE(twin, nullptr);
  xml::Document doc = Doc(1);
  ASSERT_TRUE(rig->Apply(*doc.root(), 1, /*insert=*/true).ok());
  ASSERT_TRUE(twin->Apply(*doc.root(), 1, /*insert=*/true).ok());

  auto same_kind = twin->index->GetSnapshot();
  ASSERT_TRUE(same_kind.ok());
  std::shared_ptr<const Snapshot> other_engine = rig->OtherEngineSnapshot();
  ASSERT_NE(other_engine, nullptr);
  for (const std::shared_ptr<const Snapshot>& foreign :
       {*same_kind, other_engine}) {
    QueryOptions options;
    options.snapshot = foreign;
    auto result = rig->index->Query("/doc/leaf", options);
    ASSERT_FALSE(result.ok());
    EXPECT_TRUE(result.status().IsInvalidArgument())
        << result.status().ToString();
  }
  // Its own snapshot is accepted.
  auto own = rig->index->GetSnapshot();
  ASSERT_TRUE(own.ok());
  QueryOptions options;
  options.snapshot = *own;
  auto result = rig->index->Query("/doc/leaf", options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result, (std::vector<uint64_t>{1}));
}

INSTANTIATE_TEST_SUITE_P(AllEngines, SnapshotContractTest,
                         ::testing::Values(Kind::kVist, Kind::kPath,
                                           Kind::kNode),
                         [](const ::testing::TestParamInfo<Kind>& info) {
                           return std::string(KindName(info.param));
                         });

}  // namespace
}  // namespace exec
}  // namespace vist
