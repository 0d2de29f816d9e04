// VistIndex: the paper's primary contribution — a dynamic XML index built
// entirely on B+ trees (§3.4).
//
// On disk, an index is a directory holding one page file, index.db (plus
// index.db.journal while a batch is open). Its B+ trees are the combined
// D-/S-Ancestor tree, the DocId tree, the optional document store, and a
// meta tree with the creation options, the interned element/attribute
// names and, for the statistical allocator, the frozen schema statistics
// (layout: vist/manifest.h).
//
// Usage:
//   auto index = VistIndex::Create(dir, options);
//   index->InsertDocument(*doc.root(), /*doc_id=*/1);
//   auto ids = index->Query("/purchase//item[manufacturer='intel']");
//
// Threading (docs/CONCURRENCY.md "Snapshots"): one VistIndex can be shared
// across threads. Mutations (Insert*/Delete*/BulkLoad*/Flush) serialize
// behind the writer lock (QueryableIndex::Mutate) and run as copy-on-write
// transactions: each one builds the next tree version out-of-place and
// publishes it atomically (VersionedStore::Write), so a failed mutation
// rolls back completely.
// Queries (Query/QueryCompiled/GetDocument/Stats/CheckIntegrity) take NO
// lock at all: each pins the current published version (a Snapshot) and
// reads only pages frozen in it, so readers never wait on a writer — not
// even one holding a multi-hundred-ms bulk insert open. A query observes
// exactly one committed version; GetSnapshot() hands that pin to callers
// for repeatable reads across queries (QueryOptions::snapshot). The
// durable state is still that of the last Flush(). The same contract, via
// the same shapes, applies to both baseline indexes so concurrent Table-4
// comparisons stay fair.

#ifndef VIST_VIST_VIST_INDEX_H_
#define VIST_VIST_VIST_INDEX_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "exec/queryable_index.h"
#include "obs/query_profile.h"
#include "query/query_sequence.h"
#include "seq/sequence.h"
#include "seq/symbol_table.h"
#include "storage/btree.h"
#include "storage/version.h"
#include "storage/versioned_store.h"
#include "vist/matcher.h"
#include "vist/schema_stats.h"
#include "vist/scope_allocator.h"

namespace vist {

/// index.db's settings come from StoreOptions: page_size (recorded in the
/// page file's header), buffer_pool_pages, durability and env (runtime
/// only).
struct VistOptions : StoreOptions {
  enum class AllocatorKind {
    kUniform,      // §3.4.1 "without clues": λ-geometric (Eq. 5-6)
    kStatistical,  // §3.4.1 "with clues": follow-set slots (Eq. 1-4)
  };
  AllocatorKind allocator = AllocatorKind::kUniform;
  /// λ: rough estimate of distinct successors per node (uniform allocator,
  /// and the statistical allocator's fallback).
  uint64_t lambda = 16;

  /// Keep the serialized documents in the index (enables verified queries
  /// and GetDocument).
  bool store_documents = false;

  /// Sample statistics for the statistical allocator; borrowed during
  /// Create() (stored in index.db, reloaded on Open).
  const SchemaStats* stats = nullptr;
};

// QueryOptions and IndexStats, shared by every engine, live with the
// QueryableIndex interface in exec/queryable_index.h.

/// VistIndex's pinned read view: one published Version plus B+ tree views
/// resolved from its roots. See exec/queryable_index.h (Snapshot) for the
/// contract; obtained via VistIndex::GetSnapshot().
class VistSnapshot : public Snapshot {
 public:
  uint64_t epoch() const override { return version_->epoch; }

 private:
  friend class VistIndex;
  explicit VistSnapshot(const QueryableIndex* owner) : Snapshot(owner) {}

  std::shared_ptr<const Version> version_;
  BTreeView entry_tree_;
  BTreeView docid_tree_;
  BTreeView doc_store_;  // invalid unless store_documents
};

class VistIndex : public QueryableIndex {
 public:
  /// Creates a fresh index in `dir` (created if missing). Refuses a
  /// directory that already holds a committed index; whatever else a
  /// crash inside an earlier Create left there is replaced.
  static Result<std::unique_ptr<VistIndex>> Create(const std::string& dir,
                                                   const VistOptions& options);

  /// Opens an existing index; creates no file. Runtime fields of `options`
  /// (buffer pool, durability, env) are honored; persisted fields, page
  /// size included, come from index.db. NotFound when `dir` holds no
  /// committed index.
  static Result<std::unique_ptr<VistIndex>> Open(const std::string& dir,
                                                 const VistOptions& options);

  ~VistIndex() override;

  VistIndex(const VistIndex&) = delete;
  VistIndex& operator=(const VistIndex&) = delete;

  /// Indexes a document (Algorithm 4). `doc_id` is caller-assigned and must
  /// be unique. Also stores the serialized document when store_documents.
  /// Like every mutation, commits atomically: on error nothing is
  /// published and readers keep seeing the previous version.
  Status InsertDocument(const xml::Node& root, uint64_t doc_id);

  /// Indexes a pre-built sequence. InvalidArgument when the index stores
  /// documents, like every sequence entry point: a sequence carries no
  /// document text.
  Status InsertSequence(const Sequence& sequence, uint64_t doc_id);

  /// Bulk-loads a whole corpus into a still-empty index. Runs the same
  /// insert walk as InsertSequence for each sequence in order (so the
  /// same dynamic labels), but against an in-memory staging map whose
  /// entries are then written to the B+ trees in key order, which packs
  /// pages densely and clusters D-key ranges — the locality a
  /// one-at-a-time build cannot get. Memory: O(total entries).
  /// One copy-on-write transaction: concurrent readers see the empty
  /// index until the load commits, then the full corpus. InvalidArgument
  /// when the index stores documents.
  Status BulkLoadSequences(
      const std::vector<std::pair<uint64_t, Sequence>>& documents);

  /// Removes a document previously inserted with this exact content.
  Status DeleteDocument(const xml::Node& root, uint64_t doc_id);
  /// Removes a sequence previously inserted with InsertSequence or
  /// BulkLoadSequences; InvalidArgument when the index stores documents.
  Status DeleteSequence(const Sequence& sequence, uint64_t doc_id);

  /// Compiles a path expression (parse → query tree → query sequences
  /// against the symbol table) without executing it. A name the table
  /// lacks compiles to no alternatives, so the plan matches nothing even
  /// after a later insert interns the name.
  Result<std::shared_ptr<const QueryPlan>> Prepare(
      std::string_view path, const QueryOptions& options = {}) override;

  /// Executes a plan previously produced by this index's Prepare
  /// (InvalidArgument for any other plan).
  Result<std::vector<uint64_t>> QueryWithPlan(
      const QueryPlan& plan, const QueryOptions& options = {}) override;

  /// Evaluates an already-compiled query (no verification available here —
  /// verification needs the query tree). With collect_doc_ids == false the
  /// matching work runs but DocId output is skipped (Figure 10's
  /// measurement mode) and the result is empty.
  Result<std::vector<uint64_t>> QueryCompiled(
      const query::CompiledQuery& compiled,
      obs::QueryProfile* profile = nullptr, bool collect_doc_ids = true);

  /// Returns the stored XML text of a document (store_documents only).
  Result<std::string> GetDocument(uint64_t doc_id);

  /// Pins the current committed version as a VistSnapshot — lock-free,
  /// never waits on a writer. See QueryableIndex::GetSnapshot.
  Result<std::shared_ptr<const Snapshot>> GetSnapshot() override;

  SymbolTable* symbols() { return &symtab_; }
  const VistOptions& options() const { return options_; }

  Result<IndexStats> Stats() override;

  /// fsck for the index: verifies every structural invariant of the
  /// virtual suffix tree — decodable entries, labels forming a laminar
  /// scope family, parent links pointing at enclosing nodes, DocId labels
  /// resolving to live nodes, and refcounts equal to the number of
  /// documents whose insertion path traverses each node. O(N log N) time,
  /// O(N) memory. Returns the findings; an empty `problems` means clean.
  /// Runs on one pinned snapshot, so it may overlap writers.
  struct IntegrityReport {
    uint64_t nodes = 0;
    uint64_t doc_entries = 0;
    std::vector<std::string> problems;

    bool ok() const { return problems.empty(); }
  };
  Result<IntegrityReport> CheckIntegrity();

  /// Commits the page file's current batch. All mutations between two
  /// Flush() calls form one atomic unit: after a crash, the index reopens
  /// in the state of the last Flush.
  Status Flush() override;

  /// Test hook: abandons all unflushed state as a crashed process would.
  /// The index object is unusable afterwards; reopen the directory.
  void SimulateCrashForTesting();

 private:
  explicit VistIndex(VistOptions options);

  /// Writer-side bodies of the mutating entry points, for composition:
  /// e.g. InsertDocument = Mutate + VersionedStore::Write around
  /// InsertSequenceImpl + the document text's chunks. Everything
  /// writer-side below runs only inside such a transaction, under the
  /// writer lock.
  Status InsertSequenceImpl(const Sequence& sequence, uint64_t doc_id);
  Status DeleteSequenceImpl(const Sequence& sequence, uint64_t doc_id);
  Status BulkLoadSequencesImpl(
      const std::vector<std::pair<uint64_t, Sequence>>& documents);

  /// Reader-side bodies: lock-free, reading only through `snap`'s views.
  Result<std::vector<uint64_t>> QueryCompiledImpl(
      const VistSnapshot& snap, const query::CompiledQuery& compiled,
      obs::QueryProfile* profile, bool collect_doc_ids,
      DeadlineChecker* checker = nullptr);
  Result<std::string> GetDocumentImpl(const VistSnapshot& snap,
                                      uint64_t doc_id);

  /// Pins the current version and builds its tree views (never fails).
  std::shared_ptr<const VistSnapshot> PinSnapshot() const;

  /// Opens index.db in `dir`. With `create`, builds a new one in a single
  /// write transaction: the trees, the virtual root, the options record and
  /// the stats. Otherwise rebuilds options, names and stats from the meta
  /// tree.
  Status InitStore(const std::string& dir, bool create);

  /// Writer-side: stores the names interned since the last committed
  /// write transaction (kNamesSlot counts the stored ones), so a name
  /// reaches index.db with the first entry that uses it.
  Status PersistNewNames();

  /// One node on a document's root-to-leaf path: a copy of its record,
  /// written back by whoever commits the path.
  struct PathEntry {
    std::string key;  // entry key in the combined tree
    NodeRecord record;
  };

  /// Writer-side: the virtual root's entry in the working tree, which
  /// heads every insert and delete path.
  Result<PathEntry> LoadRootEntry();
  /// Reader-side root-record read through a snapshot view.
  Status LoadRootRecordAt(const BTreeView& tree, NodeRecord* record) const;
  Status WriteRecord(const std::string& entry_key, const NodeRecord& record);

  /// Writer-side: up to `limit` entries of the working tree whose keys
  /// start with `child_range` (a D-key ‖ a parent label, so the parent's
  /// immediate children with that D-key), in label order. Scope underflow
  /// can give one parent several children with the same D-key.
  Result<std::vector<PathEntry>> ReadChildren(const std::string& child_range,
                                              size_t limit);

  /// Finds the first existing child in `child_range`, filling `child`.
  using ChildLookup =
      std::function<Result<bool>(const std::string& child_range,
                                 PathEntry* child)>;

  /// Algorithm 4: extends `path`, which holds the virtual root, by one
  /// entry per element of `sequence`. Reuses the child `find_child`
  /// returns, else asks the scope allocator for a new scope, and on scope
  /// underflow hands the rest of the sequence to InsertUnderflowRun. Also
  /// raises the max_depth scalar. Reads only through `find_child` and
  /// writes no entry: the caller commits `path`, or drops it to roll back.
  Status WalkInsertPath(const Sequence& sequence,
                        const ChildLookup& find_child,
                        std::vector<PathEntry>* path);

  /// Scope underflow (§3.4.1): labels the remaining elements sequentially
  /// from the nearest ancestor reserve with room, rebuilding the path tail
  /// (duplicating the intermediate nodes the run bypasses).
  Status InsertUnderflowRun(const Sequence& sequence,
                            std::vector<PathEntry>* path);

  /// Backtracking walk used by DeleteSequence.
  Result<bool> TryDelete(const Sequence& sequence, size_t i, uint64_t doc_id,
                         std::vector<PathEntry>* path);

  VistOptions options_;
  SymbolTable symtab_;
  SchemaStats stats_;
  std::unique_ptr<VersionedStore> store_;
  // Owned by store_.
  BTree* entry_tree_ = nullptr;
  BTree* docid_tree_ = nullptr;
  BTree* doc_store_ = nullptr;  // null unless store_documents
  BTree* meta_tree_ = nullptr;
  std::unique_ptr<ScopeAllocator> allocator_;
  std::string root_key_;
};

}  // namespace vist

#endif  // VIST_VIST_VIST_INDEX_H_
