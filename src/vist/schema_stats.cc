#include "vist/schema_stats.h"

#include <algorithm>

#include "common/coding.h"

namespace vist {
namespace {

// Successor recorded when a sequence ends (the ε member of the follow set).
constexpr SchemaStats::SuccessorKey kEndOfSequence{kInvalidSymbol, 0};

}  // namespace

void SchemaStats::CollectFrom(const Sequence& sequence) {
  if (sequence.empty()) return;
  ++num_samples_;
  auto bump = [this](Symbol context, SuccessorKey successor) {
    Successors& entry = by_context_[context];
    auto it = std::lower_bound(
        entry.counts.begin(), entry.counts.end(), successor,
        [](const auto& pair, const SuccessorKey& key) {
          return pair.first < key;
        });
    if (it != entry.counts.end() && it->first == successor) {
      ++it->second;
    } else {
      entry.counts.insert(it, {successor, 1});
    }
    ++entry.total;
  };
  bump(kInvalidSymbol,
       {sequence[0].symbol, static_cast<uint32_t>(sequence[0].prefix.size())});
  for (size_t i = 0; i + 1 < sequence.size(); ++i) {
    bump(sequence[i].symbol,
         {sequence[i + 1].symbol,
          static_cast<uint32_t>(sequence[i + 1].prefix.size())});
  }
  bump(sequence.back().symbol, kEndOfSequence);
}

const SchemaStats::Successors* SchemaStats::Lookup(Symbol context) const {
  auto it = by_context_.find(context);
  return it == by_context_.end() ? nullptr : &it->second;
}

std::string SchemaStats::Encode() const {
  std::string blob;
  PutVarint64(&blob, num_samples_);
  PutVarint64(&blob, by_context_.size());
  for (const auto& [context, successors] : by_context_) {
    PutVarint64(&blob, context);
    PutVarint64(&blob, successors.total);
    PutVarint64(&blob, successors.counts.size());
    for (const auto& [key, count] : successors.counts) {
      PutVarint64(&blob, key.symbol);
      PutVarint64(&blob, key.depth);
      PutVarint64(&blob, count);
    }
  }
  return blob;
}

Result<SchemaStats> SchemaStats::Decode(Slice input) {
  SchemaStats stats;
  uint64_t contexts = 0;
  if (!GetVarint64(&input, &stats.num_samples_) ||
      !GetVarint64(&input, &contexts)) {
    return Status::Corruption("bad schema stats header");
  }
  for (uint64_t i = 0; i < contexts; ++i) {
    uint64_t context = 0, total = 0, n = 0;
    if (!GetVarint64(&input, &context) || !GetVarint64(&input, &total) ||
        !GetVarint64(&input, &n)) {
      return Status::Corruption("truncated schema stats");
    }
    Successors successors;
    successors.total = total;
    for (uint64_t j = 0; j < n; ++j) {
      uint64_t symbol = 0, depth = 0, count = 0;
      if (!GetVarint64(&input, &symbol) || !GetVarint64(&input, &depth) ||
          !GetVarint64(&input, &count)) {
        return Status::Corruption("truncated schema stats");
      }
      successors.counts.push_back(
          {{symbol, static_cast<uint32_t>(depth)}, count});
    }
    stats.by_context_.emplace(context, std::move(successors));
  }
  if (!input.empty()) {
    return Status::Corruption("trailing bytes in schema stats");
  }
  return stats;
}

}  // namespace vist
