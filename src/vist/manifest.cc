#include "vist/manifest.h"

#include "common/coding.h"

namespace vist {
namespace {

constexpr uint64_t kManifestVersion = 3;

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
  PutVarint64(&record, options.store_documents);
  return record;
}

Status DecodeManifest(Slice record, VistOptions* options) {
  uint64_t version = 0, statistical = 0, lambda = 0, store = 0;
  if (!GetVarint64(&record, &version) || version != kManifestVersion ||
      !GetVarint64(&record, &statistical) || !GetVarint64(&record, &lambda) ||
      !GetVarint64(&record, &store) || !record.empty()) {
    return Status::Corruption("malformed options record");
  }
  options->allocator = statistical != 0
                           ? VistOptions::AllocatorKind::kStatistical
                           : VistOptions::AllocatorKind::kUniform;
  options->lambda = lambda;
  options->store_documents = store != 0;
  return Status::OK();
}

}  // namespace vist
