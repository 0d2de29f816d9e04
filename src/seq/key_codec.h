// Order-preserving key encodings for the index B+ trees.
//
// D-key (the (Symbol, Prefix) pair of §3.3): the paper prescribes ordering
// "first by the Symbol, then by the length of the Prefix, and lastly by the
// content of the Prefix" so that wildcard queries become range queries. The
// encoding below realizes exactly that order under memcmp:
//
//   D-key      = symbol(8B BE) ‖ prefix_len(2B BE) ‖ prefix[i](8B BE)...
//   entry key  = D-key ‖ n(8B BE)            (combined D-/S-Ancestor tree)
//   docid key  = n(8B BE) ‖ doc_id(8B BE)    (DocId tree)
//
// Because the S-Ancestor component `n` is appended after the D-key, the
// "S-Ancestor B+ tree of a (Symbol, Prefix)" is the contiguous entry-key
// range sharing that D-key, and the range query n ∈ (nx, nx+sizex] of
// Algorithm 2 is a single B+ tree scan.

#ifndef VIST_SEQ_KEY_CODEC_H_
#define VIST_SEQ_KEY_CODEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/slice.h"
#include "seq/symbol_table.h"

namespace vist {

/// Maximum prefix depth the codec can represent (16-bit length field; real
/// documents are far shallower).
inline constexpr size_t kMaxPrefixDepth = 0xFFFF;

/// Encodes the D-key of (symbol, prefix).
std::string EncodeDKey(Symbol symbol, const std::vector<Symbol>& prefix);

/// Decodes a D-key; returns false on malformed input.
bool DecodeDKey(Slice input, Symbol* symbol, std::vector<Symbol>* prefix);

/// Encodes the *partial* D-key of every (symbol, prefix) whose prefix has
/// exactly `declared_len` symbols and starts with `known_prefix`
/// (known_prefix.size() <= declared_len). All matching full D-keys, and
/// only those, lie in the range [partial, PrefixRangeEnd(partial)) — the
/// wildcard range queries of §3.3.
std::string EncodeDKeyPartial(Symbol symbol, size_t declared_len,
                              const std::vector<Symbol>& known_prefix);

/// Appends the parent label and the node's own label to a D-key, forming
/// an entry key for the combined D-/S-Ancestor tree:
///
///   entry key = D-key ‖ parent_n (8B BE) ‖ n (8B BE)
///
/// Ordering entries of one D-key by parent label first serves both access
/// paths with one key: the *immediate children* of node x with this D-key
/// are the contiguous prefix range (D-key ‖ x.n ‖ *) — an exact seek for
/// dynamic insertion (Algorithm 4) — and the *descendants* of x are the
/// range parent_n ∈ [x.n, x.n + size_x), because a node lies in x's
/// subtree iff its parent is x or inside x's scope. The latter is the
/// S-Ancestorship range query of Algorithm 2.
std::string EncodeEntryKey(const std::string& dkey, uint64_t parent_n,
                           uint64_t n);

/// Splits an entry key into its D-key bytes and the two labels. Returns
/// false on malformed input.
bool DecodeEntryKey(Slice input, Slice* dkey, uint64_t* parent_n,
                    uint64_t* n);

/// DocId-tree keys.
inline constexpr size_t kDocIdKeySize = 16;
std::string EncodeDocIdKey(uint64_t n, uint64_t doc_id);
/// The same key written to `buf`, for a caller that seeks once per binding
/// and allocates nothing; the returned slice points into `buf`.
Slice EncodeDocIdKey(uint64_t n, uint64_t doc_id, char (&buf)[kDocIdKeySize]);
bool DecodeDocIdKey(Slice input, uint64_t* n, uint64_t* doc_id);

/// The smallest byte string strictly greater than every string that starts
/// with `key` (for exclusive upper bounds of prefix ranges). Returns empty
/// when no such string exists (key is all 0xFF), meaning "scan to the end".
std::string PrefixRangeEnd(const std::string& key);

}  // namespace vist

#endif  // VIST_SEQ_KEY_CODEC_H_
