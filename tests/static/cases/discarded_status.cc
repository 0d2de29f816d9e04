// MUST NOT COMPILE (-Werror=unused-result): a Status-returning call whose
// result is silently dropped. vist::Status is [[nodiscard]]; errors are
// either handled, propagated, or routed through vist::IgnoreError with a
// reason — never ignored by omission.
#include "common/status.h"

namespace vist {
namespace {

Status DoWork() { return Status::IOError("disk on fire"); }

void Caller() {
  DoWork();  // violation: error discarded
}

}  // namespace
}  // namespace vist
