// Deadline: a point on the monotonic clock by which work must finish.
//
// The serving path threads one of these from the wire (`deadline_ms` in a
// request frame) through QueryOptions into every engine's long loops, so a
// query whose budget has run out stops touching index pages instead of
// holding a worker until it completes (docs/SERVING.md, "timeouts, retries,
// and overload"). A default-constructed Deadline is infinite — the common
// case pays one branch and no clock read.
//
// DeadlineChecker is the cooperative-cancellation half: engines call
// Expired() at checkpoints inside their scan loops, and the checker
// amortizes the clock read over kCheckInterval calls. Both types are plain
// values confined to the thread running the query — no locks, no atomics,
// no shared state — which is what lets checkpoints sit inside the engines'
// reader-locked sections without extending the lock order
// (docs/CONCURRENCY.md).

#ifndef VIST_COMMON_DEADLINE_H_
#define VIST_COMMON_DEADLINE_H_

#include <chrono>
#include <cstdint>

namespace vist {

class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  /// Infinite: never expires.
  Deadline() = default;

  static Deadline Infinite() { return Deadline(); }

  /// Expires `budget` from now.
  static Deadline After(std::chrono::nanoseconds budget) {
    return Deadline(Clock::now() + budget);
  }

  /// Expires `ms` milliseconds from now.
  static Deadline AfterMillis(int64_t ms) {
    return After(std::chrono::milliseconds(ms));
  }

  /// Expires at the given instant.
  static Deadline At(Clock::time_point when) { return Deadline(when); }

  bool has_deadline() const { return has_deadline_; }

  /// True once the monotonic clock has reached the deadline. Always false
  /// for an infinite deadline; reads the clock otherwise.
  bool expired() const { return has_deadline_ && Clock::now() >= when_; }

  /// Budget left before expiry, clamped at zero. Infinite deadlines report
  /// the maximum representable duration.
  std::chrono::nanoseconds remaining() const {
    if (!has_deadline_) return std::chrono::nanoseconds::max();
    const auto left =
        std::chrono::duration_cast<std::chrono::nanoseconds>(when_ -
                                                             Clock::now());
    return left.count() > 0 ? left : std::chrono::nanoseconds::zero();
  }

  /// remaining() in whole milliseconds (rounded up so a positive budget
  /// never truncates to a zero poll timeout). Capped to int for poll().
  int remaining_millis() const {
    if (!has_deadline_) return -1;  // poll()'s "wait forever"
    const auto ns = remaining();
    if (ns == std::chrono::nanoseconds::zero()) return 0;
    const int64_t ms = (ns.count() + 999999) / 1000000;
    return ms > (1 << 30) ? (1 << 30) : static_cast<int>(ms);
  }

  /// The underlying instant; meaningful only when has_deadline().
  Clock::time_point when() const { return when_; }

  /// The earlier of the two deadlines (an infinite one never wins).
  static Deadline Sooner(const Deadline& a, const Deadline& b) {
    if (!a.has_deadline()) return b;
    if (!b.has_deadline()) return a;
    return a.when_ <= b.when_ ? a : b;
  }

 private:
  explicit Deadline(Clock::time_point when)
      : when_(when), has_deadline_(true) {}

  Clock::time_point when_{};
  bool has_deadline_ = false;
};

/// Amortized deadline checkpoints for tight loops. One checker lives on the
/// stack of the thread executing a query; engines call Expired() once per
/// unit of work (an index entry scanned, a node visited). The clock is read
/// on the first call and every kCheckInterval calls after, so the number of
/// work units between the deadline passing and the query aborting is
/// bounded by kCheckInterval — the "bounded overshoot" the deadline tests
/// assert via QueryProfile::index_nodes_accessed.
///
/// Expiry is sticky: once observed, every later call returns true without
/// reading the clock, so callers may re-check freely on unwind paths.
class DeadlineChecker {
 public:
  static constexpr uint32_t kCheckInterval = 32;

  /// A checker with no deadline; Expired() is always false.
  DeadlineChecker() = default;

  explicit DeadlineChecker(const Deadline& deadline) : deadline_(deadline) {}

  /// Test hook: a checker whose deadline has already passed but which
  /// first reads the clock at its k-th Expired() call (k >= 1), so expiry
  /// lands at a checkpoint the test chooses.
  static DeadlineChecker ExpiringAtCheckForTesting(uint32_t k) {
    DeadlineChecker checker(Deadline::At(Deadline::Clock::now()));
    checker.ticks_ = k > 0 ? k - 1 : 0;
    return checker;
  }

  bool Expired() {
    if (expired_) return true;
    if (!deadline_.has_deadline()) return false;
    if (ticks_ == 0) {
      ticks_ = kCheckInterval;
      if (deadline_.expired()) expired_ = true;
    }
    --ticks_;
    return expired_;
  }

  const Deadline& deadline() const { return deadline_; }

 private:
  Deadline deadline_;
  uint32_t ticks_ = 0;  // calls until the next clock read; 0 = read now
  bool expired_ = false;
};

}  // namespace vist

#endif  // VIST_COMMON_DEADLINE_H_
