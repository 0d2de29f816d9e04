// Structure splitting (paper §2 and §3.4.1): "For databases with large
// structures, such as XMARK, we break down the structure into a set of sub
// structures ... and create index for each of them. Thus, we limit the
// average length of the derived sequences."
//
// SplitDocument extracts every occurrence of the named split elements as
// its own record, each wrapped in its chain of ancestors (so absolute
// queries like /site//item still anchor correctly), and leaves the
// residual document (everything outside split subtrees) as a final record
// when it still contains content. The wrapper chain carries names only:
// ancestor attributes stay with the residual record.

#ifndef VIST_VIST_SPLITTER_H_
#define VIST_VIST_SPLITTER_H_

#include <set>
#include <string>
#include <vector>

#include "xml/node.h"

namespace vist {

/// Splits `root` into substructure records, one per subtree whose element
/// name is in `split_elements`. Order: document order of the split points,
/// residual record (if any) last. The input is not modified.
std::vector<xml::Document> SplitDocument(
    const xml::Node& root, const std::set<std::string>& split_elements);

}  // namespace vist

#endif  // VIST_VIST_SPLITTER_H_
