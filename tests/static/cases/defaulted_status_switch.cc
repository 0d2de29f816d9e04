// MUST NOT COMPILE (-Werror=switch-enum): a switch on StatusCode whose
// default: label hides an enumerator it never names. The library builds
// with -Wswitch-enum, so a switch that maps one status enum onto another
// (the wire protocol's WireStatus, Status::CodeName) must name every
// enumerator, and growing either enum breaks the build until it does.
#include "common/status.h"

namespace vist {
namespace {

const char* Describe(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kNotFound:
      return "not found";
    default:  // violation: every other enumerator falls in here unnamed
      return "error";
  }
}

}  // namespace
}  // namespace vist
