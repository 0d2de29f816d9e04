#include "baseline/path_index.h"

#include <algorithm>
#include <filesystem>
#include <set>

#include "common/coding.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "query/path_parser.h"
#include "seq/key_codec.h"

namespace vist {
namespace {

constexpr int kTreeSlot = 0;
// Scalar slots, versioned with the tree root so a snapshot's scalars match
// its tree.
constexpr int kMaxDepthSlot = 1;
constexpr int kNumDocumentsSlot = 2;

// Path key: length (2B BE) ‖ symbols (8B BE each); entries append the
// doc id (8B BE). The length-first order groups paths by depth so wildcard
// scans can work one depth bucket at a time, like the D-key order.
std::string EncodePathKey(const std::vector<Symbol>& path) {
  VIST_CHECK(path.size() <= kMaxPrefixDepth);
  std::string key;
  key.reserve(2 + 8 * path.size());
  key.push_back(static_cast<char>(path.size() >> 8));
  key.push_back(static_cast<char>(path.size()));
  for (Symbol s : path) PutFixed64BE(&key, s);
  return key;
}

std::string EncodePathEntryKey(const std::vector<Symbol>& path,
                               uint64_t doc_id) {
  std::string key = EncodePathKey(path);
  PutFixed64BE(&key, doc_id);
  return key;
}

// Partial key covering all paths of length `declared_len` that start with
// `known` (known.size() <= declared_len).
std::string EncodePathKeyPartial(size_t declared_len,
                                 const std::vector<Symbol>& known) {
  std::string key;
  key.push_back(static_cast<char>(declared_len >> 8));
  key.push_back(static_cast<char>(declared_len));
  for (Symbol s : known) PutFixed64BE(&key, s);
  return key;
}

bool DecodePathEntryKey(Slice input, std::vector<Symbol>* path,
                        uint64_t* doc_id) {
  if (input.size() < 10) return false;
  const size_t len = (static_cast<unsigned char>(input[0]) << 8) |
                     static_cast<unsigned char>(input[1]);
  if (input.size() != 2 + 8 * len + 8) return false;
  path->clear();
  path->reserve(len);
  for (size_t i = 0; i < len; ++i) {
    path->push_back(DecodeFixed64BE(input.data() + 2 + 8 * i));
  }
  *doc_id = DecodeFixed64BE(input.data() + input.size() - 8);
  return true;
}

// Lowers a query tree into its root-to-leaf path patterns. Sets
// *unknown_name when the query uses a name the index never saw.
void CollectLeafPaths(const query::QueryNode& node, const SymbolTable& symtab,
                      std::vector<Symbol>* current,
                      std::vector<std::vector<Symbol>>* out,
                      bool* unknown_name) {
  Symbol symbol = kInvalidSymbol;
  switch (node.kind) {
    case query::QueryNode::Kind::kName: {
      auto looked_up = symtab.Lookup(node.name);
      if (!looked_up.ok()) {
        *unknown_name = true;
        return;
      }
      symbol = *looked_up;
      break;
    }
    case query::QueryNode::Kind::kStar:
      symbol = kStarSymbol;
      break;
    case query::QueryNode::Kind::kDescendant:
      symbol = kDescendantSymbol;
      break;
    case query::QueryNode::Kind::kValue:
      symbol = SymbolTable::ValueSymbol(node.value);
      break;
  }
  current->push_back(symbol);
  if (node.children.empty()) {
    out->push_back(*current);
  } else {
    for (const auto& child : node.children) {
      CollectLeafPaths(*child, symtab, current, out, unknown_name);
      if (*unknown_name) break;
    }
  }
  current->pop_back();
}

// Refined-path posting key: a length prefix of 0xFFFF (impossible for a
// real path: such a key would exceed the page cell limit) namespaces the
// refined posting lists inside the same tree.
std::string RefinedPostingKey(uint32_t refined_id, uint64_t doc_id) {
  std::string key("\xFF\xFF", 2);
  PutFixed32BE(&key, refined_id);
  PutFixed64BE(&key, doc_id);
  return key;
}

// Compiled form of a query: its root-to-leaf path patterns. When the query
// named a symbol the table hadn't interned at compile time the plan is
// pinned to the empty answer.
class PathQueryPlan : public QueryPlan {
 public:
  PathQueryPlan(std::string path, bool unknown_name,
                std::vector<std::vector<Symbol>> leaf_paths)
      : QueryPlan(std::move(path)),
        unknown_name_(unknown_name),
        leaf_paths_(std::move(leaf_paths)) {}

  bool unknown_name() const { return unknown_name_; }
  const std::vector<std::vector<Symbol>>& leaf_paths() const {
    return leaf_paths_;
  }

 private:
  const bool unknown_name_;
  const std::vector<std::vector<Symbol>> leaf_paths_;
};

}  // namespace

PathIndex::PathIndex(const SymbolTable* symtab) : symtab_(symtab) {
  refined_.Store(std::make_shared<const std::vector<RefinedPath>>());
}

Result<std::unique_ptr<PathIndex>> PathIndex::Create(
    const std::string& dir, const SymbolTable* symtab,
    const StoreOptions& options) {
  VIST_CHECK(symtab != nullptr);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IOError("cannot create directory " + dir);
  std::unique_ptr<PathIndex> index(new PathIndex(symtab));
  VIST_ASSIGN_OR_RETURN(index->store_,
                        VersionedStore::Open(dir + "/paths.db", options));
  VIST_RETURN_IF_ERROR(index->store_->Write(/*epoch=*/0, [&]() -> Status {
    VIST_ASSIGN_OR_RETURN(index->tree_, index->store_->CreateTree(kTreeSlot));
    return Status::OK();
  }));
  return index;
}

Status PathIndex::AddRefinedPath(std::string_view path) {
  return Mutate([&](uint64_t epoch) {
    // The write publishes a fresh Version even though no page changes, so
    // the snapshot epoch still tells pre- from post-registration state.
    return store_->Write(epoch, [&]() -> Status {
      VIST_ASSIGN_OR_RETURN(query::CompiledQuery compiled,
                            query::CompilePath(path, *symtab_));
      auto next = std::make_shared<std::vector<RefinedPath>>(*refined_.Load());
      RefinedPath refined;
      refined.pattern = std::string(path);
      refined.compiled = std::move(compiled);
      refined.id = static_cast<uint32_t>(next->size());
      next->push_back(std::move(refined));
      // Swap the list before the version installs so any snapshot that
      // pins the new version also sees the new list; a pin racing ahead
      // of an unreturned AddRefinedPath is linearizable.
      refined_.Store(std::move(next));
      return Status::OK();
    });
  });
}

Status PathIndex::InsertSequence(const Sequence& sequence, uint64_t doc_id) {
  return Mutate([&](uint64_t epoch) {
    return store_->Write(epoch,
                         [&] { return InsertSequenceImpl(sequence, doc_id); });
  });
}

Status PathIndex::InsertSequenceImpl(const Sequence& sequence,
                                     uint64_t doc_id) {
  store_->SetWorkingSlot(kNumDocumentsSlot,
                         store_->WorkingSlot(kNumDocumentsSlot) + 1);
  uint64_t max_depth = store_->WorkingSlot(kMaxDepthSlot);
  std::vector<Symbol> path;
  for (const SequenceElement& element : sequence) {
    path = element.prefix;
    path.push_back(element.symbol);
    VIST_RETURN_IF_ERROR(
        tree_->Put(EncodePathEntryKey(path, doc_id), Slice()));
    max_depth = std::max<uint64_t>(max_depth, path.size());
  }
  store_->SetWorkingSlot(kMaxDepthSlot, max_depth);
  // Refined-path maintenance: every registered pattern is evaluated
  // against every inserted document.
  auto refined = refined_.Load();
  for (const RefinedPath& entry : *refined) {
    refined_maintenance_checks_.fetch_add(1, std::memory_order_relaxed);
    if (query::MatchesAny(entry.compiled, sequence)) {
      VIST_RETURN_IF_ERROR(
          tree_->Put(RefinedPostingKey(entry.id, doc_id), Slice()));
    }
  }
  return Status::OK();
}

Status PathIndex::DeleteSequence(const Sequence& sequence, uint64_t doc_id) {
  return Mutate([&](uint64_t epoch) {
    return store_->Write(epoch,
                         [&] { return DeleteSequenceImpl(sequence, doc_id); });
  });
}

Status PathIndex::DeleteSequenceImpl(const Sequence& sequence,
                                     uint64_t doc_id) {
  const uint64_t docs = store_->WorkingSlot(kNumDocumentsSlot);
  if (docs > 0) store_->SetWorkingSlot(kNumDocumentsSlot, docs - 1);
  std::vector<Symbol> path;
  for (const SequenceElement& element : sequence) {
    path = element.prefix;
    path.push_back(element.symbol);
    Status s = tree_->Delete(EncodePathEntryKey(path, doc_id));
    // The root's path is the only one-symbol path, so its key names the
    // document; without it there is nothing to delete.
    if (s.IsNotFound() && path.size() == 1) {
      return Status::NotFound("document not present with this content");
    }
    // Duplicate root-to-node paths collapse onto one key at insert time,
    // so the second removal of the same key legitimately finds nothing.
    if (!s.ok() && !s.IsNotFound()) return s;
  }
  auto refined = refined_.Load();
  for (const RefinedPath& entry : *refined) {
    refined_maintenance_checks_.fetch_add(1, std::memory_order_relaxed);
    if (query::MatchesAny(entry.compiled, sequence)) {
      Status s = tree_->Delete(RefinedPostingKey(entry.id, doc_id));
      if (!s.ok() && !s.IsNotFound()) return s;
    }
  }
  return Status::OK();
}

std::shared_ptr<const PathSnapshot> PathIndex::PinSnapshot() const {
  std::shared_ptr<PathSnapshot> snap(new PathSnapshot(this));
  snap->version_ = store_->Pin();
  snap->tree_ = tree_->ViewAt(*snap->version_);
  snap->refined_ = refined_.Load();
  return snap;
}

Result<std::shared_ptr<const Snapshot>> PathIndex::GetSnapshot() {
  return std::shared_ptr<const Snapshot>(PinSnapshot());
}

Result<std::vector<uint64_t>> PathIndex::EvalPathPattern(
    const PathSnapshot& snap, const std::vector<Symbol>& pattern,
    DeadlineChecker* checker) {
  // Split the pattern into the concrete head and the wildcard-bearing rest.
  std::vector<Symbol> known;
  size_t stars = 0;
  bool unbounded = false;
  for (Symbol s : pattern) {
    if (s == kStarSymbol) {
      ++stars;
    } else if (s == kDescendantSymbol) {
      unbounded = true;
    } else if (stars == 0 && !unbounded) {
      known.push_back(s);
    }
  }
  // Minimum concrete length: every non-'//' pattern symbol consumes one.
  size_t min_len = 0;
  for (Symbol s : pattern) {
    if (s != kDescendantSymbol) ++min_len;
  }
  const size_t indexed_depth = snap.version_->slots[kMaxDepthSlot];
  const size_t max_len =
      unbounded ? std::max<size_t>(indexed_depth, min_len) : min_len;

  std::set<uint64_t> docs;
  for (size_t len = min_len; len <= max_len; ++len) {
    const std::string partial = EncodePathKeyPartial(len, known);
    const std::string end = PrefixRangeEnd(partial);
    auto it = snap.tree_.NewIterator();
    it->set_deadline_checker(checker);
    for (it->Seek(partial);
         it->Valid() && (end.empty() || it->key().Compare(end) < 0);
         it->Next()) {
      if (checker != nullptr && checker->Expired()) {
        return Status::DeadlineExceeded("deadline expired during path scan");
      }
      std::vector<Symbol> path;
      uint64_t doc_id = 0;
      if (!DecodePathEntryKey(it->key(), &path, &doc_id)) {
        return Status::Corruption("malformed path index key");
      }
      if (PrefixPatternMatches(pattern, path)) docs.insert(doc_id);
    }
    VIST_RETURN_IF_ERROR(it->status());
  }
  return std::vector<uint64_t>(docs.begin(), docs.end());
}

Result<std::shared_ptr<const QueryPlan>> PathIndex::Prepare(
    std::string_view path, const QueryOptions& /*options*/) {
  // Pure compilation against the (borrowed, append-only) symbol table; no
  // index state is read, so no lock. The refined-path check deliberately
  // happens at execution time — see the header.
  VIST_ASSIGN_OR_RETURN(query::PathExpr expr, query::ParsePath(path));
  VIST_ASSIGN_OR_RETURN(query::QueryTree tree, query::BuildQueryTree(expr));
  std::vector<std::vector<Symbol>> leaf_paths;
  std::vector<Symbol> current;
  bool unknown_name = false;
  CollectLeafPaths(*tree.root, *symtab_, &current, &leaf_paths,
                   &unknown_name);
  if (unknown_name) leaf_paths.clear();
  return std::shared_ptr<const QueryPlan>(std::make_shared<PathQueryPlan>(
      std::string(path), unknown_name, std::move(leaf_paths)));
}

Result<std::vector<uint64_t>> PathIndex::QueryWithPlan(
    const QueryPlan& plan, const QueryOptions& options) {
  const auto* path_plan = dynamic_cast<const PathQueryPlan*>(&plan);
  if (path_plan == nullptr) {
    return Status::InvalidArgument("plan was not prepared by a PathIndex");
  }
  // Metric reference: docs/OBSERVABILITY.md (baseline section).
  static obs::Counter& queries = obs::GetCounter("baseline.path.queries");
  static obs::Counter& joins = obs::GetCounter("baseline.path.joins");
  queries.Increment();
  obs::QueryProfile* profile = options.profile;
  if (profile != nullptr) {
    profile->engine = "path_index";
    profile->query = plan.path();
  }
  // Lock-free: the whole query — posting-list check included — reads one
  // pinned version.
  VIST_ASSIGN_OR_RETURN(
      std::shared_ptr<const PathSnapshot> snap,
      ResolveSnapshot<PathSnapshot>(options, [this] { return PinSnapshot(); }));
  obs::ProfileScope scope(profile);
  DeadlineChecker checker(options.deadline);
  uint64_t query_joins = 0;
  Result<std::vector<uint64_t>> result = std::vector<uint64_t>{};
  bool answered = false;
  // A registered refined path short-circuits to its posting list. Checked
  // by exact query string at execution time, so a plan compiled (and
  // cached) before AddRefinedPath still gets the posting list.
  for (const RefinedPath& refined : *snap->refined_) {
    if (refined.pattern != plan.path()) continue;
    result = ReadRefinedPosting(*snap, refined.id);
    answered = true;
    break;
  }
  if (!answered && path_plan->unknown_name()) {
    answered = true;  // a name the index never saw: provably empty
  }
  if (!answered) {
    result = EvalLeafPatterns(*snap, path_plan->leaf_paths(), &query_joins,
                              &checker);
  }
  joins.Increment(query_joins);
  if (profile != nullptr) {
    profile->joins += query_joins;
    if (result.ok()) {
      // No verification stage: candidates are returned as-is (this baseline
      // joins at doc-id granularity, so they can even be false positives
      // sequence matching would reject).
      profile->candidates += result->size();
      profile->verified_results = profile->candidates;
    }
  }
  return result;
}

Result<std::vector<uint64_t>> PathIndex::ReadRefinedPosting(
    const PathSnapshot& snap, uint32_t refined_id) {
  std::vector<uint64_t> docs;
  const std::string lo = RefinedPostingKey(refined_id, 0);
  const std::string hi = RefinedPostingKey(refined_id + 1, 0);
  auto it = snap.tree_.NewIterator();
  for (it->Seek(lo); it->Valid() && it->key().Compare(hi) < 0; it->Next()) {
    docs.push_back(DecodeFixed64BE(it->key().data() + 6));
  }
  VIST_RETURN_IF_ERROR(it->status());
  return docs;
}

Result<std::vector<uint64_t>> PathIndex::EvalLeafPatterns(
    const PathSnapshot& snap,
    const std::vector<std::vector<Symbol>>& patterns, uint64_t* joins,
    DeadlineChecker* checker) {
  std::vector<uint64_t> result;
  bool first = true;
  for (const std::vector<Symbol>& pattern : patterns) {
    VIST_ASSIGN_OR_RETURN(std::vector<uint64_t> docs,
                          EvalPathPattern(snap, pattern, checker));
    if (first) {
      result = std::move(docs);
      first = false;
    } else {
      // The join Index Fabric needs for every extra branch.
      ++*joins;
      std::vector<uint64_t> merged;
      std::set_intersection(result.begin(), result.end(), docs.begin(),
                            docs.end(), std::back_inserter(merged));
      result = std::move(merged);
    }
    if (result.empty()) break;
  }
  return result;
}

Result<IndexStats> PathIndex::Stats() {
  std::shared_ptr<const PathSnapshot> snap = PinSnapshot();
  IndexStats stats;
  stats.size_bytes = store_->size_bytes();
  stats.num_documents = snap->version_->slots[kNumDocumentsSlot];
  stats.max_depth = snap->version_->slots[kMaxDepthSlot];
  return stats;
}

Status PathIndex::Flush() {
  return Mutate([&](uint64_t) { return store_->Flush(); });
}

}  // namespace vist
