#ifndef VIST_COMMON_ATOMIC_SHARED_PTR_H_
#define VIST_COMMON_ATOMIC_SHARED_PTR_H_

#include <atomic>
#include <memory>
#include <utility>

namespace vist {

/// An atomic publication slot for shared_ptr values — the install point
/// for versioned snapshots (storage::VersionManager).
///
/// Why not std::atomic<std::shared_ptr<T>>? libstdc++'s _Sp_atomic (GCC
/// 12, bits/shared_ptr_atomic.h) guards its pointer field with a spinlock
/// bit, but load() leaves the critical section with a *relaxed* fetch_sub
/// — so in the C++ memory model a reader's pointer read and the next
/// writer's overwrite are unordered. On real hardware the same-word RMWs
/// make that race benign, but it is a genuine model-level race that
/// ThreadSanitizer rightly reports. This slot is the same design with the
/// unlock fixed: every acquisition is acquire, every release is release,
/// so TSan can verify the protocol instead of being suppressed around it.
///
/// Load() is the readers' pin: a few nanoseconds of pointer + refcount
/// work under a per-slot spinlock whose critical section never runs user
/// code (a shared_ptr copy or swap only), so it cannot nest with any
/// other lock and is invisible to lockdep by construction.
template <typename T>
class AtomicSharedPtr {
 public:
  AtomicSharedPtr() = default;

  AtomicSharedPtr(const AtomicSharedPtr&) = delete;
  AtomicSharedPtr& operator=(const AtomicSharedPtr&) = delete;

  /// Acquire-loads the current value. Synchronizes with the Store() that
  /// published it: everything the storing thread wrote beforehand is
  /// visible to the caller.
  std::shared_ptr<T> Load() const {
    Lock();
    std::shared_ptr<T> copy = value_;
    Unlock();
    return copy;
  }

  /// Release-stores `value`. The previous value's reference drops after
  /// the critical section, so a destructor running here (the last pin of
  /// an old version) never extends the readers' wait.
  void Store(std::shared_ptr<T> value) {
    Lock();
    value_.swap(value);
    Unlock();
  }

 private:
  void Lock() const {
    while (locked_.exchange(true, std::memory_order_acquire)) {
      // The holder is copying one pointer; spinning beats parking.
    }
  }
  void Unlock() const { locked_.store(false, std::memory_order_release); }

  mutable std::atomic<bool> locked_{false};
  std::shared_ptr<T> value_;
};

}  // namespace vist

#endif  // VIST_COMMON_ATOMIC_SHARED_PTR_H_
