// MUST COMPILE, with every flag the fail cases run under. Exercises the
// same constructs correctly; if this breaks, the suite's rejections are
// noise, not signal.
#include <cstdint>

#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace vist {
namespace {

class Counter {
 public:
  void Bump() VIST_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    BumpLocked();
  }

  uint64_t Get() const VIST_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return value_;
  }

 private:
  void BumpLocked() VIST_REQUIRES(mu_) { ++value_; }

  mutable Mutex mu_{LockRank::kTestHarness};
  uint64_t value_ VIST_GUARDED_BY(mu_) = 0;
};

class Table {
 public:
  void Set(uint64_t v) VIST_EXCLUDES(mu_) {
    WriterLock lock(mu_);
    size_ = v;
  }

  uint64_t Size() const VIST_EXCLUDES(mu_) {
    ReaderLock lock(mu_);
    return size_;
  }

 private:
  mutable SharedMutex mu_{LockRank::kTestHarness};
  uint64_t size_ VIST_GUARDED_BY(mu_) = 0;
};

Status DoWork() { return Status::OK(); }
Result<int> Compute() { return 7; }

// Names every enumerator, as -Wswitch-enum demands even with a default.
bool Retryable(StatusCode code) {
  switch (code) {
    case StatusCode::kIOError:
    case StatusCode::kDeadlineExceeded:
      return true;
    case StatusCode::kOk:
    case StatusCode::kNotFound:
    case StatusCode::kCorruption:
    case StatusCode::kInvalidArgument:
    case StatusCode::kNotSupported:
    case StatusCode::kScopeOverflow:
    case StatusCode::kParseError:
      return false;
  }
  return false;
}

Status Use() {
  Counter c;
  c.Bump();
  Table t;
  t.Set(c.Get());
  VIST_RETURN_IF_ERROR(DoWork());
  VIST_ASSIGN_OR_RETURN(int v, Compute());
  IgnoreError(DoWork(), "best-effort call whose failure changes nothing");
  return v >= 0 && t.Size() == 0 && !Retryable(StatusCode::kOk)
             ? Status::OK()
             : Status::InvalidArgument("bad");
}

}  // namespace
}  // namespace vist
