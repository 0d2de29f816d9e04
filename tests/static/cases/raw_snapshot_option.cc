// MUST NOT COMPILE: a raw Snapshot* handed to QueryOptions::snapshot. The
// option owns its pin (a shared_ptr), so a query can never read through a
// snapshot whose last owner is gone; a borrowed raw pointer has no way in.
#include <memory>

#include "exec/queryable_index.h"

namespace vist {
namespace {

void Caller(const std::shared_ptr<const Snapshot>& pinned) {
  QueryOptions options;
  const Snapshot* raw = pinned.get();
  options.snapshot = raw;  // violation: a raw pointer carries no pin
}

}  // namespace
}  // namespace vist
