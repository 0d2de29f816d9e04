// Symbols: the alphabet of structure-encoded sequences.
//
// The paper (§2) uses capital letters for element/attribute names and a hash
// function h() for attribute values. We realize that as one 64-bit symbol
// space:
//
//   bit 63 = 0   interned name symbol (dense ids from a persistent table)
//   bit 63 = 1   value symbol: (Hash64(value) | bit63) — stateless, so value
//                predicates in queries need no table lookups
//
// Two reserved symbols exist only inside *query* prefixes (never stored in
// an index): kStarSymbol for '*' and kDescendantSymbol for '//' place
// holders (§2: "the prefix paths of their sub nodes will contain a '*' or
// '//' symbol as a place holder").

#ifndef VIST_SEQ_SYMBOL_TABLE_H_
#define VIST_SEQ_SYMBOL_TABLE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/lock_ranks.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace vist {

using Symbol = uint64_t;

inline constexpr Symbol kInvalidSymbol = 0;
inline constexpr Symbol kValueSymbolBit = uint64_t{1} << 63;
/// Query-only wildcard place holders (see header comment).
inline constexpr Symbol kStarSymbol = (uint64_t{1} << 62);
inline constexpr Symbol kDescendantSymbol = (uint64_t{1} << 62) + 1;

inline bool IsValueSymbol(Symbol s) { return (s & kValueSymbolBit) != 0; }
inline bool IsWildcardSymbol(Symbol s) {
  return s == kStarSymbol || s == kDescendantSymbol;
}
inline bool IsNameSymbol(Symbol s) {
  return s != kInvalidSymbol && !IsValueSymbol(s) && !IsWildcardSymbol(s);
}

/// Interns element/attribute names to dense symbols (starting at 1) and
/// back. Persisted inside the index, one record per name, so symbols are
/// stable across sessions.
///
/// Internally synchronized (rank kSymbolTable): Intern takes the lock
/// exclusively, everything else shared, so lock-free snapshot readers may
/// resolve names concurrently with a writer interning new ones. The table
/// is append-only, which is what makes it snapshot-safe without being
/// versioned itself: a reader holding an old tree version that races a
/// brand-new name at worst resolves a symbol its tree cannot contain,
/// yielding an empty posting — never a false positive.
class SymbolTable {
 public:
  SymbolTable() = default;

  // Moves require external exclusivity (only used while constructing an
  // index, before the table is shared), which the analysis cannot see;
  // locking the source here would be theater.
  SymbolTable(SymbolTable&& other) VIST_NO_THREAD_SAFETY_ANALYSIS {
    names_ = std::move(other.names_);
    by_name_ = std::move(other.by_name_);
  }
  SymbolTable& operator=(SymbolTable&& other) VIST_NO_THREAD_SAFETY_ANALYSIS {
    names_ = std::move(other.names_);
    by_name_ = std::move(other.by_name_);
    return *this;
  }

  /// Returns the symbol for `name`, creating it on first sight.
  Symbol Intern(std::string_view name);

  /// Returns the symbol for `name` or NotFound (used by query compilation,
  /// where an unknown name means an empty result, not a new symbol).
  Result<Symbol> Lookup(std::string_view name) const;

  /// Returns the name of a name symbol.
  Result<std::string> Name(Symbol symbol) const;

  /// Hashes a value into the value-symbol space. Stateless.
  static Symbol ValueSymbol(const Slice& value);

  /// Number of interned names.
  size_t size() const;

  /// Persistence: an index stores each name's record — its symbol and
  /// Name() — and rebuilds the table by restoring the records in symbol
  /// order. Corruption unless `symbol` is the next dense id and `name` is
  /// not interned yet.
  Status Restore(Symbol symbol, std::string_view name);

 private:
  mutable SharedMutex mu_{LockRank::kSymbolTable};
  std::vector<std::string> names_ VIST_GUARDED_BY(mu_);  // [i] has symbol i+1
  std::unordered_map<std::string, Symbol> by_name_ VIST_GUARDED_BY(mu_);
};

}  // namespace vist

#endif  // VIST_SEQ_SYMBOL_TABLE_H_
