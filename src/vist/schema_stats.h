// Semantic/statistical clues for top-down scope allocation (paper §3.4.1).
//
// The paper sizes a node's child subscopes by the probability that each
// symbol in its *follow set* appears immediately after it (Eq. 1-4). We
// realize that by sampling sequences: for every element we count which
// symbol follows it, giving the empirical P_x(y) directly — the quantity
// Eq. (2) derives from per-schema probabilities. (Empirical successor
// counts also absorb the paper's two adjustments — multiply-occurring nodes
// and dependent siblings — because they measure the joint behaviour rather
// than deriving it from independence assumptions.)
//
// Stats must be frozen with the index: allocation slots are a pure function
// of them, and moving slots after entries exist would corrupt nesting. The
// index stores the encoded stats at creation time and decodes them on
// open.

#ifndef VIST_VIST_SCHEMA_STATS_H_
#define VIST_VIST_SCHEMA_STATS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "seq/sequence.h"
#include "seq/symbol_table.h"

namespace vist {

class SchemaStats {
 public:
  SchemaStats() = default;

  /// Accumulates successor counts from one sample sequence: for each i,
  /// counts (symbol[i] -> successor of element i+1); the last element
  /// counts an end-of-sequence successor (the ε of the paper's follow set).
  void CollectFrom(const Sequence& sequence);

  /// A successor is identified by symbol *and* prefix depth: within one
  /// virtual-suffix-tree node, a child's prefix is fully determined by its
  /// depth (it is a truncation/extension of the node's own path), so
  /// (symbol, depth) distinguishes the children — which is what slot
  /// disjointness requires.
  struct SuccessorKey {
    Symbol symbol = kInvalidSymbol;
    uint32_t depth = 0;

    bool operator<(const SuccessorKey& other) const {
      return symbol != other.symbol ? symbol < other.symbol
                                    : depth < other.depth;
    }
    bool operator==(const SuccessorKey& other) const {
      return symbol == other.symbol && depth == other.depth;
    }
  };

  /// Successor distribution of `context`: (successor, count) pairs sorted
  /// by key, plus the total (including end-of-sequence).
  struct Successors {
    std::vector<std::pair<SuccessorKey, uint64_t>> counts;
    uint64_t total = 0;  // includes end-of-sequence occurrences
  };
  /// Returns null when the context was never observed.
  const Successors* Lookup(Symbol context) const;

  uint64_t num_samples() const { return num_samples_; }

  /// A self-contained byte encoding; Decode reports Corruption for any
  /// blob Encode did not produce.
  std::string Encode() const;
  static Result<SchemaStats> Decode(Slice blob);

 private:
  std::map<Symbol, Successors> by_context_;
  uint64_t num_samples_ = 0;
};

}  // namespace vist

#endif  // VIST_VIST_SCHEMA_STATS_H_
