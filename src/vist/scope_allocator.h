// Top-down dynamic scope allocation (paper §3.4.1, Algorithm 3).
//
// Two strategies, selected per index:
//
//  * UniformScopeAllocator — "dynamic scope allocation without clues":
//    every new child takes 1/λ of the parent's remaining usable scope
//    (Eq. 5-6, Fig. 8). λ is the rough estimate of the number of distinct
//    elements that follow the parent.
//
//  * StatisticalScopeAllocator — "semantic and statistical clues": each
//    symbol in the parent's observed follow set owns a fixed slot sized by
//    its empirical successor probability (Eq. 3-4), so repeated insertions
//    of the same child always land on the same subscope. Symbols never seen
//    in the sample share an "other" bucket allocated uniformly.
//
// Both reserve the tail 1/kReserveDivisor of every scope for the
// scope-underflow runs of §3.4.1, carved by the index itself (see
// vist_index.cc) via the record's seq_cursor.

#ifndef VIST_VIST_SCOPE_ALLOCATOR_H_
#define VIST_VIST_SCOPE_ALLOCATOR_H_

#include <memory>

#include "seq/symbol_table.h"
#include "vist/schema_stats.h"
#include "vist/scope.h"

namespace vist {

/// 1/d of every scope is reserved for scope-underflow runs.
inline constexpr uint64_t kReserveDivisor = 16;
/// Statistical allocator: 1/d of the usable region goes to unseen symbols.
inline constexpr uint64_t kOtherDivisor = 8;

class ScopeAllocator {
 public:
  virtual ~ScopeAllocator() = default;

  /// Carves a child scope for the element (child_symbol, depth
  /// child_depth) out of `parent`'s scope, updating the parent's allocation
  /// state (next_free / k). `parent_symbol` is the parent's element symbol
  /// (kInvalidSymbol for the virtual root) — the statistical strategy keys
  /// its follow-set slots on it.
  ///
  /// Returns an invalid Scope (size 0) on scope underflow; the caller then
  /// falls back to sequential labeling from the reserve.
  virtual Scope AllocateChild(NodeRecord* parent, Symbol parent_symbol,
                              Symbol child_symbol, uint32_t child_depth) = 0;

  /// First label past the formula-allocation region of a scope [n, n+size):
  /// [usable_end, n+size) is the reserved tail for underflow runs.
  uint64_t UsableEnd(const NodeRecord& record) const {
    const uint64_t reserve = record.size / kReserveDivisor;
    return record.n + record.size - reserve;
  }

  /// Initializes the allocation-state fields of a freshly created node
  /// record (scope already set).
  void InitRecord(NodeRecord* record) const {
    record->next_free = record->n + 1;
    record->seq_cursor = record->n + record->size;
    record->k = 0;
  }
};

class UniformScopeAllocator : public ScopeAllocator {
 public:
  /// `lambda` is the expected number of child elements (paper's λ).
  explicit UniformScopeAllocator(uint64_t lambda);

  Scope AllocateChild(NodeRecord* parent, Symbol parent_symbol,
                      Symbol child_symbol, uint32_t child_depth) override;

 private:
  const uint64_t lambda_;
};

class StatisticalScopeAllocator : public ScopeAllocator {
 public:
  /// `stats` must outlive the allocator (the index owns both).
  StatisticalScopeAllocator(const SchemaStats* stats,
                            uint64_t fallback_lambda);

  Scope AllocateChild(NodeRecord* parent, Symbol parent_symbol,
                      Symbol child_symbol, uint32_t child_depth) override;

 private:
  const SchemaStats* stats_;
  UniformScopeAllocator fallback_;
};

}  // namespace vist

#endif  // VIST_VIST_SCOPE_ALLOCATOR_H_
