// index.db's layout, shared by VistIndex and the offline checker
// (vist/fsck.h). The page file is the whole index: its meta slots hold the
// B+ tree roots and the engine scalars, and its meta tree holds what must
// survive with the trees — the creation options, the interned names, and
// the statistical allocator's frozen SchemaStats.

#ifndef VIST_VIST_MANIFEST_H_
#define VIST_VIST_MANIFEST_H_

#include <string>

#include "common/slice.h"
#include "common/status.h"
#include "seq/symbol_table.h"
#include "vist/vist_index.h"

namespace vist {

std::string PageFilePath(const std::string& dir);

/// index.db's meta slots: the B+ tree roots in [0, kNumTreeSlots), then
/// the engine scalars. All of them are versioned together, so a
/// snapshot's scalars match its trees, and a failed write transaction
/// rolls them back with the trees.
inline constexpr int kEntryTreeSlot = 0;
inline constexpr int kDocIdTreeSlot = 1;
inline constexpr int kDocStoreSlot = 2;  // unset unless store_documents
inline constexpr int kMetaTreeSlot = 3;
inline constexpr int kNumTreeSlots = 4;
inline constexpr int kMaxDepthSlot = 4;
inline constexpr int kUnderflowSlot = 5;
/// How many interned names the meta tree holds: symbols 1..n.
inline constexpr int kNamesSlot = 6;

/// The meta tree's records: the options record (EncodeManifest) under
/// kOptionsKey, each interned name under NameKey(its symbol), and the
/// encoded SchemaStats in chunks under kStatsPrefix (statistical
/// allocator only).
inline constexpr char kOptionsKey[] = "o";
inline constexpr char kNamePrefix[] = "n";
inline constexpr char kStatsPrefix[] = "s";
std::string NameKey(Symbol symbol);

/// The persisted subset of VistOptions (allocator, lambda,
/// store_documents) as one record. Runtime-only fields (buffer pool size,
/// durability, env, stats pointer) are not stored, nor is page_size, which
/// index.db's header records.
std::string EncodeManifest(const VistOptions& options);

/// Overwrites the persisted fields of `*options` from `record`;
/// Corruption when the record is malformed.
Status DecodeManifest(Slice record, VistOptions* options);

}  // namespace vist

#endif  // VIST_VIST_MANIFEST_H_
