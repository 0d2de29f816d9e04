#include "vist/vist_index.h"

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory_resource>
#include <string>
#include <string_view>

#include "common/coding.h"
#include "common/env.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "query/path_parser.h"
#include "seq/key_codec.h"
#include "vist/manifest.h"
#include "vist/verifier.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace vist {
namespace {

// Metric reference: docs/OBSERVABILITY.md (vist section).
struct VistMetrics {
  obs::Counter& insert_sequences = obs::GetCounter("vist.insert.sequences");
  obs::Counter& underflow_runs = obs::GetCounter("vist.insert.underflow_runs");
  obs::Counter& delete_sequences = obs::GetCounter("vist.delete.sequences");
  obs::Counter& bulk_load_sequences =
      obs::GetCounter("vist.bulk_load.sequences");
  obs::Counter& queries = obs::GetCounter("vist.query.count");
  obs::Histogram& insert_latency_us =
      obs::GetHistogram("vist.insert.latency_us");
  obs::Histogram& query_latency_us =
      obs::GetHistogram("vist.query.latency_us");

  static VistMetrics& Get() {
    static VistMetrics metrics;
    return metrics;
  }
};

// A value that may outgrow one B+ tree cell — a stored document (under
// its doc id, 8B BE) or the encoded SchemaStats (under kStatsPrefix) — is
// split into chunks keyed prefix ‖ chunk index (4B BE).
std::string ChunkKey(const std::string& prefix, uint32_t chunk) {
  std::string key = prefix;
  PutFixed32BE(&key, chunk);
  return key;
}

std::string DocKey(uint64_t doc_id) {
  std::string key;
  PutFixed64BE(&key, doc_id);
  return key;
}

Status PutChunked(BTree* tree, uint32_t page_size, const std::string& prefix,
                  const std::string& value) {
  const size_t chunk_size =
      NodePage::MaxCellSize(page_size - kPageTrailerSize) - 64;
  uint32_t chunk = 0;
  size_t offset = 0;
  do {
    const size_t len = std::min(chunk_size, value.size() - offset);
    VIST_RETURN_IF_ERROR(tree->Put(ChunkKey(prefix, chunk),
                                   Slice(value.data() + offset, len)));
    offset += len;
    ++chunk;
  } while (offset < value.size());
  return Status::OK();
}

// NotFound when nothing is stored under `prefix`.
Status DeleteChunked(BTree* tree, const std::string& prefix) {
  uint32_t chunk = 0;
  while (true) {
    Status s = tree->Delete(ChunkKey(prefix, chunk));
    if (s.IsNotFound()) break;
    VIST_RETURN_IF_ERROR(s);
    ++chunk;
  }
  return chunk == 0 ? Status::NotFound("nothing stored under this key")
                    : Status::OK();
}

// NotFound when nothing is stored under `prefix`.
Result<std::string> GetChunked(const BTreeView& tree,
                               const std::string& prefix) {
  std::string value;
  uint32_t chunk = 0;
  while (true) {
    auto piece = tree.Get(ChunkKey(prefix, chunk));
    if (piece.status().IsNotFound()) break;
    VIST_RETURN_IF_ERROR(piece.status());
    value += *piece;
    ++chunk;
  }
  if (chunk == 0) return Status::NotFound("nothing stored under this key");
  return value;
}

// The immediate children of node `parent_n` with D-key `dkey` are the
// contiguous entry-key range (dkey ‖ parent_n ‖ *): one exact seek,
// independent of how often the D-key occurs elsewhere. Returns the range's
// common prefix, which sorts before every key in it.
std::string ChildRange(const std::string& dkey, uint64_t parent_n) {
  std::string range = dkey;
  PutFixed64BE(&range, parent_n);
  return range;
}

Status ParseRootRecord(const std::string& value, NodeRecord* record) {
  if (!DecodeNodeRecord(value, record)) {
    return Status::Corruption("malformed virtual-root record");
  }
  record->n = 0;
  record->parent_n = 0;
  return Status::OK();
}

// A sequence carries no document text. On an index that stores documents,
// a sequence insert would leave verification nothing to read and a
// sequence delete would leave the text behind, so the sequence entry
// points refuse such an index.
Status SequenceWriteOnDocumentStore() {
  return Status::InvalidArgument(
      "an index that stores documents takes InsertDocument and "
      "DeleteDocument, not sequences");
}

// VistIndex's compiled form: the query tree (needed again at execution
// time for verified queries) plus the query sequences matched against the
// virtual suffix tree.
class VistQueryPlan : public QueryPlan {
 public:
  VistQueryPlan(std::string path, query::QueryTree tree,
                query::CompiledQuery compiled)
      : QueryPlan(std::move(path)),
        tree_(std::move(tree)),
        compiled_(std::move(compiled)) {}

  const query::QueryTree& tree() const { return tree_; }
  const query::CompiledQuery& compiled() const { return compiled_; }

 private:
  const query::QueryTree tree_;
  const query::CompiledQuery compiled_;
};

}  // namespace

VistIndex::VistIndex(VistOptions options)
    : options_(options),
      root_key_(EncodeEntryKey(EncodeDKey(kInvalidSymbol, {}), 0, 0)) {}

VistIndex::~VistIndex() {
  // After a (simulated) crash, unflushed state must never reach disk.
  if (store_ == nullptr || store_->crashed()) return;
  // Flush drains every reclaimable limbo page first (no snapshots may
  // outlive the index, so at this point that is all of them) — the synced
  // freelist then accounts for every retired page and fsck stays clean.
  Status s = Flush();
  if (!s.ok()) VIST_LOG(Error) << "index close: " << s.ToString();
}

void VistIndex::SimulateCrashForTesting() {
  Status crashed = Mutate([&](uint64_t) {
    store_->SimulateCrashForTesting();
    return Status::OK();
  });
  IgnoreError(crashed, "crashing installs nothing, so the body cannot fail");
}

Status VistIndex::InitStore(const std::string& dir, bool create) {
  VIST_ASSIGN_OR_RETURN(
      store_, VersionedStore::Open(PageFilePath(dir), options_, create));
  options_.page_size = store_->page_size();
  // Creates or opens the data trees and makes the allocator; runs once
  // options_ holds the persisted values.
  auto trees = [&]() -> Status {
    auto tree = [&](int slot) {
      return create ? store_->CreateTree(slot) : store_->OpenTree(slot);
    };
    VIST_ASSIGN_OR_RETURN(entry_tree_, tree(kEntryTreeSlot));
    VIST_ASSIGN_OR_RETURN(docid_tree_, tree(kDocIdTreeSlot));
    if (options_.store_documents) {
      VIST_ASSIGN_OR_RETURN(doc_store_, tree(kDocStoreSlot));
    }
    if (options_.allocator == VistOptions::AllocatorKind::kStatistical) {
      allocator_ = std::make_unique<StatisticalScopeAllocator>(
          &stats_, options_.lambda);
    } else {
      allocator_ = std::make_unique<UniformScopeAllocator>(options_.lambda);
    }
    return Status::OK();
  };
  if (create) {
    // One transaction writes the whole empty index: the meta tree's
    // records, the trees, and the virtual root, which owns the whole label
    // space (label 0 unused).
    return store_->Write(/*epoch=*/0, [&]() -> Status {
      VIST_ASSIGN_OR_RETURN(meta_tree_, store_->CreateTree(kMetaTreeSlot));
      VIST_RETURN_IF_ERROR(
          meta_tree_->Put(kOptionsKey, EncodeManifest(options_)));
      if (options_.allocator == VistOptions::AllocatorKind::kStatistical) {
        VIST_RETURN_IF_ERROR(PutChunked(meta_tree_, options_.page_size,
                                        kStatsPrefix, stats_.Encode()));
      }
      VIST_RETURN_IF_ERROR(trees());
      NodeRecord root;
      root.n = 0;
      root.size = kMaxScope;
      allocator_->InitRecord(&root);
      return WriteRecord(root_key_, root);
    });
  }

  // Without a meta tree no Create ever committed here. Past this check a
  // missing tree or record is damage, not an absent index.
  if (store_->WorkingSlot(kMetaTreeSlot) == kInvalidPageId) {
    return Status::NotFound(PageFilePath(dir) + " holds no committed index");
  }
  Status loaded = [&]() -> Status {
    VIST_ASSIGN_OR_RETURN(meta_tree_, store_->OpenTree(kMetaTreeSlot));
    const BTreeView meta = meta_tree_->ViewAt(*store_->Pin());
    VIST_ASSIGN_OR_RETURN(std::string record, meta.Get(kOptionsKey));
    VIST_RETURN_IF_ERROR(DecodeManifest(record, &options_));
    auto it = meta.NewIterator();
    for (it->Seek(kNamePrefix);
         it->Valid() && it->key().StartsWith(kNamePrefix); it->Next()) {
      const Symbol symbol = symtab_.size() + 1;
      if (it->key() != Slice(NameKey(symbol))) {
        return Status::Corruption("name record out of sequence");
      }
      VIST_RETURN_IF_ERROR(symtab_.Restore(symbol, it->value().view()));
    }
    VIST_RETURN_IF_ERROR(it->status());
    if (symtab_.size() != store_->WorkingSlot(kNamesSlot)) {
      return Status::Corruption("name records disagree with the names count");
    }
    if (options_.allocator == VistOptions::AllocatorKind::kStatistical) {
      VIST_ASSIGN_OR_RETURN(std::string blob, GetChunked(meta, kStatsPrefix));
      VIST_ASSIGN_OR_RETURN(stats_, SchemaStats::Decode(blob));
    }
    return trees();
  }();
  if (loaded.IsNotFound()) {
    return Status::Corruption(PageFilePath(dir) + ": " + loaded.message());
  }
  return loaded;
}

Status VistIndex::PersistNewNames() {
  const uint64_t stored = store_->WorkingSlot(kNamesSlot);
  const uint64_t interned = symtab_.size();
  if (stored == interned) return Status::OK();
  for (Symbol symbol = stored + 1; symbol <= interned; ++symbol) {
    VIST_ASSIGN_OR_RETURN(std::string name, symtab_.Name(symbol));
    VIST_RETURN_IF_ERROR(meta_tree_->Put(NameKey(symbol), name));
  }
  store_->SetWorkingSlot(kNamesSlot, interned);
  return Status::OK();
}

Result<std::unique_ptr<VistIndex>> VistIndex::Create(
    const std::string& dir, const VistOptions& options) {
  if (options.allocator == VistOptions::AllocatorKind::kStatistical &&
      options.stats == nullptr) {
    return Status::InvalidArgument(
        "statistical allocator requires VistOptions::stats");
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IOError("cannot create directory " + dir);
  // Refuse only a committed index. What a crash inside an earlier Create
  // leaves — no page file, an empty one, or one whose journal rolls back to
  // no meta tree — holds none, and is replaced.
  auto existing = Open(dir, options);
  if (existing.ok()) {
    return Status::InvalidArgument(dir + " already contains an index");
  }
  if (!existing.status().IsNotFound()) return existing.status();
  Env* env = options.env != nullptr ? options.env : Env::Default();
  VIST_ASSIGN_OR_RETURN(bool stale, env->FileExists(PageFilePath(dir)));
  if (stale) VIST_RETURN_IF_ERROR(env->DeleteFile(PageFilePath(dir)));

  std::unique_ptr<VistIndex> index(new VistIndex(options));
  if (options.allocator == VistOptions::AllocatorKind::kStatistical) {
    index->stats_ = *options.stats;
  }
  VIST_RETURN_IF_ERROR(index->InitStore(dir, /*create=*/true));
  VIST_RETURN_IF_ERROR(index->Flush());
  return index;
}

Result<std::unique_ptr<VistIndex>> VistIndex::Open(const std::string& dir,
                                                   const VistOptions& options) {
  std::unique_ptr<VistIndex> index(new VistIndex(options));
  VIST_RETURN_IF_ERROR(index->InitStore(dir, /*create=*/false));
  return index;
}

Result<VistIndex::PathEntry> VistIndex::LoadRootEntry() {
  PathEntry root{root_key_, {}};
  VIST_ASSIGN_OR_RETURN(std::string value, entry_tree_->Get(root_key_));
  VIST_RETURN_IF_ERROR(ParseRootRecord(value, &root.record));
  return root;
}

Status VistIndex::LoadRootRecordAt(const BTreeView& tree,
                                   NodeRecord* record) const {
  VIST_ASSIGN_OR_RETURN(std::string value, tree.Get(root_key_));
  return ParseRootRecord(value, record);
}

Status VistIndex::WriteRecord(const std::string& entry_key,
                              const NodeRecord& record) {
  return entry_tree_->Put(entry_key, EncodeNodeRecord(record));
}

Result<std::vector<VistIndex::PathEntry>> VistIndex::ReadChildren(
    const std::string& child_range, size_t limit) {
  std::vector<PathEntry> children;
  auto it = entry_tree_->NewIterator();
  for (it->Seek(child_range); it->Valid() &&
                              it->key().StartsWith(child_range) &&
                              children.size() < limit;
       it->Next()) {
    PathEntry child{it->key().ToString(), {}};
    Slice dkey;
    if (!DecodeEntryKey(it->key(), &dkey, &child.record.parent_n,
                        &child.record.n) ||
        !DecodeNodeRecord(it->value(), &child.record)) {
      return Status::Corruption("malformed entry");
    }
    children.push_back(std::move(child));
  }
  VIST_RETURN_IF_ERROR(it->status());
  return children;
}

std::shared_ptr<const VistSnapshot> VistIndex::PinSnapshot() const {
  std::shared_ptr<VistSnapshot> snap(new VistSnapshot(this));
  snap->version_ = store_->Pin();
  const Version& v = *snap->version_;
  snap->entry_tree_ = entry_tree_->ViewAt(v);
  snap->docid_tree_ = docid_tree_->ViewAt(v);
  if (doc_store_ != nullptr) snap->doc_store_ = doc_store_->ViewAt(v);
  return snap;
}

Result<std::shared_ptr<const Snapshot>> VistIndex::GetSnapshot() {
  return std::shared_ptr<const Snapshot>(PinSnapshot());
}

Status VistIndex::InsertSequence(const Sequence& sequence, uint64_t doc_id) {
  return Mutate([&](uint64_t epoch) {
    if (options_.store_documents) return SequenceWriteOnDocumentStore();
    return store_->Write(epoch,
                         [&] { return InsertSequenceImpl(sequence, doc_id); });
  });
}

Status VistIndex::InsertSequenceImpl(const Sequence& sequence,
                                     uint64_t doc_id) {
  if (sequence.empty()) {
    return Status::InvalidArgument("cannot index an empty sequence");
  }
  VistMetrics::Get().insert_sequences.Increment();
  obs::ScopedTimer timer(VistMetrics::Get().insert_latency_us);
  std::vector<PathEntry> path(1);
  VIST_ASSIGN_OR_RETURN(path[0], LoadRootEntry());
  VIST_RETURN_IF_ERROR(WalkInsertPath(
      sequence,
      [this](const std::string& child_range, PathEntry* child) -> Result<bool> {
        VIST_ASSIGN_OR_RETURN(std::vector<PathEntry> children,
                              ReadChildren(child_range, /*limit=*/1));
        if (children.empty()) return false;
        *child = std::move(children.front());
        return true;
      },
      &path));
  // Commit: bump refcounts along the final path and persist every record
  // on it. Nothing was written before this point, so allocation failures
  // above leave the index untouched.
  VIST_RETURN_IF_ERROR(PersistNewNames());
  for (PathEntry& entry : path) {
    ++entry.record.refcount;
    VIST_RETURN_IF_ERROR(WriteRecord(entry.key, entry.record));
  }
  return docid_tree_->Put(EncodeDocIdKey(path.back().record.n, doc_id),
                          Slice());
}

Status VistIndex::WalkInsertPath(const Sequence& sequence,
                                 const ChildLookup& find_child,
                                 std::vector<PathEntry>* path) {
  uint64_t depth = store_->WorkingSlot(kMaxDepthSlot);
  for (const SequenceElement& elem : sequence) {
    depth = std::max<uint64_t>(depth, elem.prefix.size());
  }
  store_->SetWorkingSlot(kMaxDepthSlot, depth);

  // path[i] covers sequence element i-1 (path[0] is the virtual root).
  for (size_t i = 0; i < sequence.size(); ++i) {
    const SequenceElement& elem = sequence[i];
    const std::string dkey = EncodeDKey(elem.symbol, elem.prefix);
    NodeRecord& parent = path->back().record;
    PathEntry child;
    VIST_ASSIGN_OR_RETURN(bool found,
                          find_child(ChildRange(dkey, parent.n), &child));
    if (!found) {
      const Symbol parent_symbol =
          i == 0 ? kInvalidSymbol : sequence[i - 1].symbol;
      const Scope scope = allocator_->AllocateChild(
          &parent, parent_symbol, elem.symbol,
          static_cast<uint32_t>(elem.prefix.size()));
      if (!scope.valid()) return InsertUnderflowRun(sequence, path);
      child.key = EncodeEntryKey(dkey, parent.n, scope.n);
      child.record.n = scope.n;
      child.record.size = scope.size;
      child.record.parent_n = parent.n;
      allocator_->InitRecord(&child.record);
    }
    path->push_back(std::move(child));
  }
  return Status::OK();
}

Status VistIndex::InsertUnderflowRun(const Sequence& sequence,
                                     std::vector<PathEntry>* path) {
  const size_t total = sequence.size();
  // Borrow from the nearest ancestor whose reserve can hold labels for the
  // remaining elements plus duplicates of the intermediates it skips
  // (§3.4.1: "we borrow scopes from the parent nodes").
  for (size_t j = path->size(); j-- > 0;) {
    NodeRecord& ancestor = (*path)[j].record;
    // path[j] covers sequence element j-1 (path[0] is the virtual root), so
    // elements j..total-1 need labels inside this ancestor.
    const uint64_t run_len = total - j;
    const uint64_t usable_end = allocator_->UsableEnd(ancestor);
    if (ancestor.seq_cursor < usable_end + run_len ||
        ancestor.seq_cursor < run_len) {
      continue;  // reserve exhausted here; climb further
    }
    const uint64_t run_lo = ancestor.seq_cursor - run_len;
    ancestor.seq_cursor = run_lo;
    store_->SetWorkingSlot(kUnderflowSlot,
                           store_->WorkingSlot(kUnderflowSlot) + 1);
    VistMetrics::Get().underflow_runs.Increment();

    // The doc's path now diverges at the ancestor: the abandoned tail
    // entries were never written (all writes are deferred), so dropping
    // them rolls their allocations back.
    const uint64_t anchor_n = ancestor.n;
    path->resize(j + 1);
    for (uint64_t t = 0; t < run_len; ++t) {
      const SequenceElement& elem = sequence[j + t];
      PathEntry entry;
      entry.record.n = run_lo + t;
      entry.record.size = run_len - t;
      entry.record.parent_n = t == 0 ? anchor_n : run_lo + t - 1;
      entry.record.next_free = entry.record.n + 1;
      entry.record.seq_cursor = entry.record.n + entry.record.size;
      entry.key = EncodeEntryKey(EncodeDKey(elem.symbol, elem.prefix),
                                 entry.record.parent_n, entry.record.n);
      path->push_back(std::move(entry));
    }
    return Status::OK();
  }
  return Status::ScopeOverflow(
      "no ancestor reserve can hold the remaining elements");
}

Status VistIndex::BulkLoadSequences(
    const std::vector<std::pair<uint64_t, Sequence>>& documents) {
  return Mutate([&](uint64_t epoch) {
    if (options_.store_documents) return SequenceWriteOnDocumentStore();
    return store_->Write(epoch,
                         [&] { return BulkLoadSequencesImpl(documents); });
  });
}

Status VistIndex::BulkLoadSequencesImpl(
    const std::vector<std::pair<uint64_t, Sequence>>& documents) {
  VIST_ASSIGN_OR_RETURN(PathEntry root, LoadRootEntry());
  if (root.record.refcount != 0) {
    return Status::InvalidArgument("bulk load requires an empty index");
  }
  // The staged virtual suffix tree, virtual root included: entry key ->
  // record. Each document runs the insert walk with child lookups in this
  // map instead of the B+ tree, so its labels are exactly those dynamic
  // insertion would give; the map then reaches the B+ tree in key order.
  //
  // The map lives in an arena so that its memory goes back to the system
  // when the load returns. Allocated node by node from the heap, it is
  // interleaved with the buffer-pool frames the same load allocates, and
  // the allocator keeps those pages resident afterwards. The first block
  // is above glibc's largest dynamic mmap threshold (32 MiB), so every
  // block is mapped on its own and unmapped when the arena dies.
  std::pmr::monotonic_buffer_resource arena(size_t{64} << 20);
  std::pmr::map<std::pmr::string, NodeRecord, std::less<>> staged(&arena);
  const auto root_it =
      staged.emplace(std::string_view(root.key), root.record).first;
  const ChildLookup find_staged = [&staged](const std::string& child_range,
                                            PathEntry* child) -> Result<bool> {
    const auto it = staged.lower_bound(std::string_view(child_range));
    if (it == staged.end() ||
        !std::string_view(it->first).starts_with(child_range)) {
      return false;
    }
    *child = {std::string(it->first), it->second};
    return true;
  };
  std::vector<std::pair<uint64_t, uint64_t>> doc_labels;  // (n, doc_id)
  for (const auto& [doc_id, sequence] : documents) {
    if (sequence.empty()) {
      return Status::InvalidArgument("cannot index an empty sequence");
    }
    VistMetrics::Get().bulk_load_sequences.Increment();
    std::vector<PathEntry> path{
        {std::string(root_it->first), root_it->second}};
    VIST_RETURN_IF_ERROR(WalkInsertPath(sequence, find_staged, &path));
    for (PathEntry& entry : path) {
      ++entry.record.refcount;
      // In place when staged; a key is allocated on first insert only.
      const std::string_view key = entry.key;
      const auto it = staged.lower_bound(key);
      if (it != staged.end() && it->first == key) {
        it->second = entry.record;
      } else {
        staged.emplace_hint(it, key, entry.record);
      }
    }
    doc_labels.emplace_back(path.back().record.n, doc_id);
  }

  // Write everything in key order: entries (the virtual root sorts
  // first), then doc ids.
  VIST_RETURN_IF_ERROR(PersistNewNames());
  for (const auto& [key, record] : staged) {
    VIST_RETURN_IF_ERROR(
        entry_tree_->Put(std::string_view(key), EncodeNodeRecord(record)));
  }
  std::sort(doc_labels.begin(), doc_labels.end());
  for (const auto& [n, doc_id] : doc_labels) {
    VIST_RETURN_IF_ERROR(
        docid_tree_->Put(EncodeDocIdKey(n, doc_id), Slice()));
  }
  return Status::OK();
}

Status VistIndex::InsertDocument(const xml::Node& root, uint64_t doc_id) {
  return Mutate([&](uint64_t epoch) {
    // Interning is not part of the transaction: the symbol table is
    // append-only, so symbols from an aborted insert are harmless.
    Sequence sequence = BuildSequence(root, &symtab_);
    return store_->Write(epoch, [&]() -> Status {
      VIST_RETURN_IF_ERROR(InsertSequenceImpl(sequence, doc_id));
      if (!options_.store_documents) return Status::OK();
      return PutChunked(doc_store_, options_.page_size, DocKey(doc_id),
                        xml::WriteNode(root));
    });
  });
}

Result<bool> VistIndex::TryDelete(const Sequence& sequence, size_t i,
                                  uint64_t doc_id,
                                  std::vector<PathEntry>* path) {
  if (i == sequence.size()) {
    Status s = docid_tree_->Delete(
        EncodeDocIdKey(path->back().record.n, doc_id));
    if (s.IsNotFound()) return false;
    VIST_RETURN_IF_ERROR(s);
    // Unreference the path; garbage-collect nodes no document uses.
    for (size_t t = path->size(); t-- > 1;) {
      PathEntry& entry = (*path)[t];
      if (--entry.record.refcount == 0) {
        VIST_RETURN_IF_ERROR(entry_tree_->Delete(entry.key));
      } else {
        VIST_RETURN_IF_ERROR(WriteRecord(entry.key, entry.record));
      }
    }
    PathEntry& root = (*path)[0];
    if (root.record.refcount > 0) --root.record.refcount;
    VIST_RETURN_IF_ERROR(WriteRecord(root.key, root.record));
    return true;
  }
  // Collect the candidate children first: scope underflow can duplicate a
  // (symbol, prefix) under one parent, and the doc id lives on only one of
  // the resulting paths.
  const SequenceElement& elem = sequence[i];
  VIST_ASSIGN_OR_RETURN(
      std::vector<PathEntry> candidates,
      ReadChildren(ChildRange(EncodeDKey(elem.symbol, elem.prefix),
                              path->back().record.n),
                   /*limit=*/SIZE_MAX));
  for (PathEntry& candidate : candidates) {
    path->push_back(std::move(candidate));
    VIST_ASSIGN_OR_RETURN(bool deleted,
                          TryDelete(sequence, i + 1, doc_id, path));
    if (deleted) return true;
    path->pop_back();
  }
  return false;
}

Status VistIndex::DeleteSequence(const Sequence& sequence, uint64_t doc_id) {
  return Mutate([&](uint64_t epoch) {
    if (options_.store_documents) return SequenceWriteOnDocumentStore();
    return store_->Write(epoch,
                         [&] { return DeleteSequenceImpl(sequence, doc_id); });
  });
}

Status VistIndex::DeleteSequenceImpl(const Sequence& sequence,
                                     uint64_t doc_id) {
  if (sequence.empty()) {
    return Status::InvalidArgument("cannot delete an empty sequence");
  }
  VistMetrics::Get().delete_sequences.Increment();
  std::vector<PathEntry> path(1);
  VIST_ASSIGN_OR_RETURN(path[0], LoadRootEntry());
  VIST_ASSIGN_OR_RETURN(bool deleted, TryDelete(sequence, 0, doc_id, &path));
  if (!deleted) {
    return Status::NotFound("document not present with this content");
  }
  return Status::OK();
}

Status VistIndex::DeleteDocument(const xml::Node& root, uint64_t doc_id) {
  return Mutate([&](uint64_t epoch) {
    Sequence sequence = BuildSequence(root, &symtab_);
    return store_->Write(epoch, [&]() -> Status {
      VIST_RETURN_IF_ERROR(DeleteSequenceImpl(sequence, doc_id));
      if (!options_.store_documents) return Status::OK();
      return DeleteChunked(doc_store_, DocKey(doc_id));
    });
  });
}

Result<std::vector<uint64_t>> VistIndex::QueryCompiled(
    const query::CompiledQuery& compiled, obs::QueryProfile* profile,
    bool collect_doc_ids) {
  // Lock-free: pin the current version and read only its frozen pages.
  std::shared_ptr<const VistSnapshot> snap = PinSnapshot();
  return QueryCompiledImpl(*snap, compiled, profile, collect_doc_ids);
}

Result<std::vector<uint64_t>> VistIndex::QueryCompiledImpl(
    const VistSnapshot& snap, const query::CompiledQuery& compiled,
    obs::QueryProfile* profile, bool collect_doc_ids,
    DeadlineChecker* checker) {
  MatchContext context{snap.entry_tree_, snap.docid_tree_,
                       snap.version_->slots[kMaxDepthSlot], collect_doc_ids,
                       checker};
  return MatchCompiledQuery(context, compiled, profile);
}

Result<std::shared_ptr<const QueryPlan>> VistIndex::Prepare(
    std::string_view path, const QueryOptions& /*options*/) {
  // Compilation reads only the symbol table, which synchronizes itself
  // (and is append-only) — no index lock, no snapshot needed.
  VIST_ASSIGN_OR_RETURN(query::PathExpr expr, query::ParsePath(path));
  VIST_ASSIGN_OR_RETURN(query::QueryTree tree, query::BuildQueryTree(expr));
  VIST_ASSIGN_OR_RETURN(query::CompiledQuery compiled,
                        query::CompileQuery(tree, symtab_));
  return std::shared_ptr<const QueryPlan>(std::make_shared<VistQueryPlan>(
      std::string(path), std::move(tree), std::move(compiled)));
}

Result<std::vector<uint64_t>> VistIndex::QueryWithPlan(
    const QueryPlan& plan, const QueryOptions& options) {
  const auto* vist_plan = dynamic_cast<const VistQueryPlan*>(&plan);
  if (vist_plan == nullptr) {
    return Status::InvalidArgument(
        "plan was not prepared by a VistIndex");
  }
  // One snapshot covers matching, document fetches, and verification, so
  // the whole query — including its verify pass — observes a single
  // committed version, with no reader lock anywhere.
  VIST_ASSIGN_OR_RETURN(
      std::shared_ptr<const VistSnapshot> snap,
      ResolveSnapshot<VistSnapshot>(options, [this] { return PinSnapshot(); }));
  VistMetrics::Get().queries.Increment();
  obs::ScopedTimer timer(VistMetrics::Get().query_latency_us);
  obs::QueryProfile* profile = options.profile;
  if (profile != nullptr) {
    profile->engine = "vist";
    profile->query = plan.path();
  }
  // Stack-owned, thread-confined cancellation state; checkpoints in the
  // matcher, the verifier, and the B+ tree iterators all consult it
  // (docs/CONCURRENCY.md: the checkpoints take no locks).
  DeadlineChecker checker(options.deadline);
  VIST_ASSIGN_OR_RETURN(std::vector<uint64_t> ids,
                        QueryCompiledImpl(*snap, vist_plan->compiled(),
                                          profile,
                                          /*collect_doc_ids=*/true,
                                          &checker));
  if (!options.verify) return ids;

  if (!options_.store_documents) {
    return Status::InvalidArgument(
        "verified queries require store_documents");
  }
  // Verification work (document fetches hit the doc-store B+ tree) is
  // charged to the same profile on top of the matching deltas.
  obs::ProfileScope verify_scope(profile);
  std::vector<uint64_t> verified;
  for (uint64_t doc_id : ids) {
    if (checker.Expired()) {
      return Status::DeadlineExceeded("deadline expired during verification");
    }
    VIST_ASSIGN_OR_RETURN(std::string text, GetDocumentImpl(*snap, doc_id));
    VIST_ASSIGN_OR_RETURN(xml::Document doc, xml::Parse(text));
    const bool embedded =
        VerifyEmbedding(vist_plan->tree(), *doc.root(), &checker);
    if (checker.Expired()) {
      // The verifier unwound on expiry; its answer is meaningless.
      return Status::DeadlineExceeded("deadline expired during verification");
    }
    if (embedded) verified.push_back(doc_id);
  }
  if (profile != nullptr) {
    profile->verified = true;
    profile->verified_results = verified.size();
  }
  return verified;
}

Result<std::string> VistIndex::GetDocument(uint64_t doc_id) {
  std::shared_ptr<const VistSnapshot> snap = PinSnapshot();
  return GetDocumentImpl(*snap, doc_id);
}

Result<std::string> VistIndex::GetDocumentImpl(const VistSnapshot& snap,
                                               uint64_t doc_id) {
  if (!options_.store_documents) {
    return Status::InvalidArgument("index does not store documents");
  }
  return GetChunked(snap.doc_store_, DocKey(doc_id));
}

Result<IndexStats> VistIndex::Stats() {
  std::shared_ptr<const VistSnapshot> snap = PinSnapshot();
  IndexStats stats;
  // page_count is an atomic read; everything else comes from the pinned
  // version, so the cardinalities are mutually consistent.
  stats.size_bytes = store_->size_bytes();
  stats.max_depth = snap->version_->slots[kMaxDepthSlot];
  stats.underflow_runs = snap->version_->slots[kUnderflowSlot];
  NodeRecord root;
  VIST_RETURN_IF_ERROR(LoadRootRecordAt(snap->entry_tree_, &root));
  stats.num_documents = root.refcount;
  VIST_ASSIGN_OR_RETURN(uint64_t entries, snap->entry_tree_.CountEntries());
  stats.num_entries = entries - 1;  // minus the virtual-root record
  return stats;
}

Result<VistIndex::IntegrityReport> VistIndex::CheckIntegrity() {
  // One pinned snapshot: the four passes see a single committed version
  // even while writers commit, so a clean live index can be checked under
  // concurrent mutation without false positives.
  std::shared_ptr<const VistSnapshot> snap = PinSnapshot();
  IntegrityReport report;
  auto complain = [&report](std::string problem) {
    if (report.problems.size() < 64) {  // cap the noise on mass damage
      report.problems.push_back(std::move(problem));
    }
  };

  // Pass 1: decode every entry; collect (n -> scope end, parent_n).
  struct NodeInfo {
    uint64_t end = 0;  // n + size
    uint64_t parent_n = 0;
    uint64_t refcount = 0;
  };
  std::map<uint64_t, NodeInfo> nodes;
  {
    auto it = snap->entry_tree_.NewIterator();
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      if (it->key().ToString() == root_key_) continue;
      Slice dkey;
      uint64_t parent_n = 0, n = 0;
      NodeRecord record;
      if (!DecodeEntryKey(it->key(), &dkey, &parent_n, &n) ||
          !DecodeNodeRecord(it->value(), &record)) {
        complain("undecodable entry");
        continue;
      }
      ++report.nodes;
      if (n == 0 || record.size == 0 || n + record.size > kMaxScope) {
        complain("node " + std::to_string(n) + ": invalid scope size " +
                 std::to_string(record.size));
        continue;
      }
      if (!nodes.emplace(n, NodeInfo{n + record.size, parent_n,
                                     record.refcount})
               .second) {
        complain("duplicate label " + std::to_string(n));
      }
    }
    VIST_RETURN_IF_ERROR(it->status());
  }

  // Pass 2 (over the sorted labels): scopes must form a laminar family —
  // each scope either nests strictly inside the innermost open scope or
  // begins after it ends — and each parent link must name the node whose
  // scope immediately encloses the child.
  std::vector<std::pair<uint64_t, uint64_t>> open;  // (n, end) stack
  for (const auto& [n, info] : nodes) {
    while (!open.empty() && n >= open.back().second) open.pop_back();
    if (!open.empty() && info.end > open.back().second) {
      complain("node " + std::to_string(n) + ": scope crosses node " +
               std::to_string(open.back().first));
    }
    if (info.parent_n == 0) {
      if (!open.empty()) {
        complain("node " + std::to_string(n) +
                 ": claims the virtual root as parent but lies inside "
                 "node " +
                 std::to_string(open.back().first));
      }
    } else if (open.empty() || open.back().first != info.parent_n) {
      complain("node " + std::to_string(n) + ": parent link " +
               std::to_string(info.parent_n) +
               " is not the enclosing node");
    }
    open.emplace_back(n, info.end);
  }

  // Pass 3: DocId labels must resolve to live nodes; collect the sorted
  // label list for refcount accounting.
  std::vector<uint64_t> doc_labels;
  {
    auto it = snap->docid_tree_.NewIterator();
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      uint64_t n = 0, doc_id = 0;
      if (!DecodeDocIdKey(it->key(), &n, &doc_id)) {
        complain("undecodable DocId entry");
        continue;
      }
      ++report.doc_entries;
      if (nodes.find(n) == nodes.end()) {
        complain("document " + std::to_string(doc_id) +
                 " attached to nonexistent node " + std::to_string(n));
      }
      doc_labels.push_back(n);
    }
    VIST_RETURN_IF_ERROR(it->status());
  }
  std::sort(doc_labels.begin(), doc_labels.end());

  // Pass 4: a node's refcount must equal the number of documents attached
  // at or under it (its scope contains exactly its subtree's labels).
  for (const auto& [n, info] : nodes) {
    const auto lo =
        std::lower_bound(doc_labels.begin(), doc_labels.end(), n);
    const auto hi =
        std::lower_bound(doc_labels.begin(), doc_labels.end(), info.end);
    const uint64_t expected = static_cast<uint64_t>(hi - lo);
    if (info.refcount != expected) {
      complain("node " + std::to_string(n) + ": refcount " +
               std::to_string(info.refcount) + " but " +
               std::to_string(expected) + " documents in scope");
    }
  }
  NodeRecord root;
  VIST_RETURN_IF_ERROR(LoadRootRecordAt(snap->entry_tree_, &root));
  if (root.refcount != doc_labels.size()) {
    complain("virtual root refcount " + std::to_string(root.refcount) +
             " but " + std::to_string(doc_labels.size()) + " documents");
  }
  return report;
}

Status VistIndex::Flush() {
  // Flush publishes no new version, but it is a public mutating entry
  // point, so the uniform epoch contract still applies.
  return Mutate([&](uint64_t) { return store_->Flush(); });
}

}  // namespace vist
