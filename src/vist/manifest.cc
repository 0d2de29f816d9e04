#include "vist/manifest.h"

#include "common/coding.h"

namespace vist {
namespace {

constexpr uint64_t kManifestVersion = 2;

}  // namespace

std::string PageFilePath(const std::string& dir) {
  return dir + "/index.db";
}

std::string NameKey(Symbol symbol) {
  std::string key = kNamePrefix;
  PutFixed64BE(&key, symbol);
  return key;
}

std::string EncodeManifest(const VistOptions& options) {
  std::string record;
  PutVarint64(&record, kManifestVersion);
  PutVarint64(&record,
              options.allocator == VistOptions::AllocatorKind::kStatistical);
  PutVarint64(&record, options.lambda);
  PutVarint64(&record, options.reserve_divisor);
  PutVarint64(&record, options.other_divisor);
  PutVarint64(&record, options.store_documents);
  PutVarint64(&record, options.sequence.include_text);
  PutVarint64(&record, options.sequence.include_attribute_values);
  return record;
}

Status DecodeManifest(Slice record, VistOptions* options) {
  uint64_t version = 0, statistical = 0, lambda = 0;
  uint64_t reserve = 0, other = 0, store = 0, text = 0, attrs = 0;
  if (!GetVarint64(&record, &version) || version != kManifestVersion ||
      !GetVarint64(&record, &statistical) || !GetVarint64(&record, &lambda) ||
      !GetVarint64(&record, &reserve) || !GetVarint64(&record, &other) ||
      !GetVarint64(&record, &store) || !GetVarint64(&record, &text) ||
      !GetVarint64(&record, &attrs) || !record.empty()) {
    return Status::Corruption("malformed options record");
  }
  options->allocator = statistical != 0
                           ? VistOptions::AllocatorKind::kStatistical
                           : VistOptions::AllocatorKind::kUniform;
  options->lambda = lambda;
  options->reserve_divisor = reserve;
  options->other_divisor = other;
  options->store_documents = store != 0;
  options->sequence.include_text = text != 0;
  options->sequence.include_attribute_values = attrs != 0;
  return Status::OK();
}

}  // namespace vist
