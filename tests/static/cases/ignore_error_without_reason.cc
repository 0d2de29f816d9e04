// MUST NOT COMPILE: a discarded Status that does not say why. IgnoreError
// takes the reason as its second argument and has no one-argument form, so
// the compiler, not a comment convention, makes every discard justify
// itself.
#include "common/status.h"

namespace vist {
namespace {

Status DoWork() { return Status::IOError("disk on fire"); }

void Caller() {
  IgnoreError(DoWork());  // violation: no reason given
}

}  // namespace
}  // namespace vist
