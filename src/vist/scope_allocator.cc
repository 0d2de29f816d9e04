#include "vist/scope_allocator.h"

#include <algorithm>

#include "common/logging.h"

namespace vist {
namespace {

// Smallest scope worth allocating by formula: a node needs its own label
// plus room for at least one descendant; anything smaller goes through the
// underflow path, which sizes scopes exactly.
constexpr uint64_t kMinFormulaScope = 2;

}  // namespace

UniformScopeAllocator::UniformScopeAllocator(uint64_t lambda)
    : lambda_(lambda < 2 ? 2 : lambda) {}

Scope UniformScopeAllocator::AllocateChild(NodeRecord* parent,
                                           Symbol /*parent_symbol*/,
                                           Symbol /*child_symbol*/,
                                           uint32_t /*child_depth*/) {
  const uint64_t region_hi = UsableEnd(*parent);
  if (parent->next_free >= region_hi) return {};
  const uint64_t remaining = region_hi - parent->next_free;
  // Eq. (5): the k-th child takes 1/λ of what is left, leaving
  // (λ-1)/λ of it for later children.
  const uint64_t child_size = remaining / lambda_;
  if (child_size < kMinFormulaScope) return {};
  Scope scope{parent->next_free, child_size};
  parent->next_free += child_size;
  ++parent->k;
  return scope;
}

StatisticalScopeAllocator::StatisticalScopeAllocator(const SchemaStats* stats,
                                                     uint64_t fallback_lambda)
    : stats_(stats), fallback_(fallback_lambda) {
  VIST_CHECK(stats_ != nullptr);
}

Scope StatisticalScopeAllocator::AllocateChild(NodeRecord* parent,
                                               Symbol parent_symbol,
                                               Symbol child_symbol,
                                               uint32_t child_depth) {
  const SchemaStats::Successors* successors = stats_->Lookup(parent_symbol);
  if (successors == nullptr) {
    // Context never sampled: no clues, fall back to λ-allocation.
    return fallback_.AllocateChild(parent, parent_symbol, child_symbol,
                                   child_depth);
  }
  const uint64_t region_lo = parent->n + 1;
  const uint64_t region_hi = UsableEnd(*parent);
  if (region_hi <= region_lo) return {};
  const uint64_t region = region_hi - region_lo;
  const uint64_t known_region = region - region / kOtherDivisor;

  // Cumulative counts over the known (non-ε) follow set, Eq. (3)-(4): the
  // i-th member's slot is proportional to its successor probability.
  uint64_t total_known = 0;
  uint64_t cum_before = 0;
  uint64_t own_count = 0;
  const SchemaStats::SuccessorKey wanted{child_symbol, child_depth};
  for (const auto& [key, count] : successors->counts) {
    if (key.symbol == kInvalidSymbol) continue;  // ε gets no scope (§3.4.1)
    if (key < wanted) cum_before += count;
    if (key == wanted) own_count = count;
    total_known += count;
  }

  if (own_count > 0) {
    // Deterministic slot: same (parent node, successor) always maps here,
    // so repeated insertions share the node found by the child search.
    const auto lo128 = static_cast<unsigned __int128>(known_region) *
                       cum_before / total_known;
    const auto hi128 = static_cast<unsigned __int128>(known_region) *
                       (cum_before + own_count) / total_known;
    const uint64_t lo = region_lo + static_cast<uint64_t>(lo128);
    const uint64_t hi = region_lo + static_cast<uint64_t>(hi128);
    if (hi - lo < kMinFormulaScope) return {};
    ++parent->k;
    return {lo, hi - lo};
  }

  // Unseen successor: allocate λ-style inside the shared "other" bucket at
  // the top of the usable region.
  const uint64_t other_lo = region_lo + known_region;
  if (parent->next_free < other_lo) parent->next_free = other_lo;
  if (parent->next_free >= region_hi) return {};
  const uint64_t remaining = region_hi - parent->next_free;
  const uint64_t child_size = remaining / kOtherDivisor;
  if (child_size < kMinFormulaScope) return {};
  Scope scope{parent->next_free, child_size};
  parent->next_free += child_size;
  ++parent->k;
  return scope;
}

}  // namespace vist
