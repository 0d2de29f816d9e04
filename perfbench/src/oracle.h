// The answer oracle: expected doc ids for a path expression, computed
// without the B+ tree engine.
//
// Every document is re-parsed from the XML text the benchmark serves and
// turned into its structure-encoded sequence under the oracle's own symbol
// table. An answer is the set of documents whose sequence satisfies
// query::MatchesAny, the reference matcher with exactly the index's
// (unverified) semantics. Only the candidate filter is an optimisation: a
// query element binds to a data element carrying the same symbol, so a
// document can match an alternative only if it contains every concrete
// symbol of that alternative, and the rarest one's posting list bounds the
// candidates.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "seq/sequence.h"
#include "seq/symbol_table.h"

namespace perfbench {

class Oracle {
 public:
  /// Adds one document; `xml` is the exact text the server indexes.
  vist::Status Add(uint64_t doc_id, std::string_view xml);

  /// Sorted ids of every added document the path matches. Thread-safe
  /// once all documents are added.
  vist::Result<std::vector<uint64_t>> Answer(std::string_view path) const;

 private:
  vist::SymbolTable symtab_;
  std::vector<uint64_t> ids_;
  std::vector<vist::Sequence> sequences_;
  /// symbol -> indices into ids_/sequences_ of documents containing it.
  std::unordered_map<vist::Symbol, std::vector<uint32_t>> postings_;
};

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
