#include "oracle.h"

#include <algorithm>

#include "query/query_sequence.h"
#include "xml/parser.h"

namespace perfbench {

vist::Status Oracle::Add(uint64_t doc_id, std::string_view xml) {
  auto doc = vist::xml::Parse(xml);
  if (!doc.ok()) return doc.status();
  const auto index = static_cast<uint32_t>(sequences_.size());
  ids_.push_back(doc_id);
  sequences_.push_back(vist::BuildSequence(*doc->root(), &symtab_));
  for (const vist::SequenceElement& element : sequences_.back()) {
    std::vector<uint32_t>& posting = postings_[element.symbol];
    if (posting.empty() || posting.back() != index) posting.push_back(index);
  }
  return vist::Status::OK();
}

vist::Result<std::vector<uint64_t>> Oracle::Answer(
    std::string_view path) const {
  auto compiled = vist::query::CompilePath(path, symtab_);
  if (!compiled.ok()) return compiled.status();
  static const std::vector<uint32_t> kNone;
  std::vector<uint32_t> candidates;
  for (const vist::query::QuerySequence& alternative :
       compiled->alternatives) {
    const std::vector<uint32_t>* rarest = nullptr;
    for (const vist::query::QuerySequenceElement& element : alternative) {
      auto it = postings_.find(element.symbol);
      const std::vector<uint32_t>* posting =
          it == postings_.end() ? &kNone : &it->second;
      if (rarest == nullptr || posting->size() < rarest->size()) {
        rarest = posting;
      }
    }
    if (rarest != nullptr) {
      candidates.insert(candidates.end(), rarest->begin(), rarest->end());
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  std::vector<uint64_t> answer;
  for (uint32_t index : candidates) {
    if (vist::query::MatchesAny(*compiled, sequences_[index])) {
      answer.push_back(ids_[index]);
    }
  }
  std::sort(answer.begin(), answer.end());
  return answer;
}

}  // namespace perfbench
