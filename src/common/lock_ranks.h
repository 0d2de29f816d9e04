// The central lock-rank table: one rank per lock *class* in the process,
// mirroring the lock order documented in docs/CONCURRENCY.md. Every
// vist::Mutex / vist::SharedMutex is constructed with one of these ranks
// (src/common/mutex.h), and the runtime lockdep layer (common/lockdep.h,
// compiled in under VIST_DEADLOCK_DEBUG) enforces the invariant:
//
//   a thread may only acquire a mutex whose order value is strictly
//   greater than the order of every mutex it already holds.
//
// Order values therefore increase from the outermost lock (acquired first)
// to the innermost leaves (acquired last, never held while acquiring
// anything else). Gaps in the numbering are deliberate room for future
// lock classes.
//
// THIS TABLE IS THE SOURCE OF TRUTH for the lock order. The table in
// docs/CONCURRENCY.md is generated from it (`scripts/vist_lint.py
// --lock-table`) and `scripts/check_invariants.sh` fails when the two
// drift, in either direction. When you add a lock class here, regenerate
// the doc table and give the new mutex its rank at construction.
//
// The X-macro shape — X(name, order, flags, description) — is parsed by
// scripts/vist_lint.py; keep each entry on its own line.
//
// Flags:
//   kLockRankFlagUnordered — the class opts out of the strict order
//     comparison; its ordering constraints are instead *learned* from
//     observed acquisition edges and enforced by the lockdep cycle
//     detector. Reserved for classes whose relative order is intentionally
//     discovered at runtime (currently only the lockdep self-test peers).

#ifndef VIST_COMMON_LOCK_RANKS_H_
#define VIST_COMMON_LOCK_RANKS_H_

#include <cstdint>

namespace vist {

inline constexpr uint32_t kLockRankFlagNone = 0;
inline constexpr uint32_t kLockRankFlagUnordered = 1;

// clang-format off
#define VIST_LOCK_RANK_LIST(X)                                               \
  X(kTestHarness,     5,  kLockRankFlagNone,                                 \
    "test/bench harness locks wrapping whole-index operations")              \
  X(kIndexWriter,     20, kLockRankFlagNone,                                 \
    "engine writer lock (QueryableIndex::Mutate in VistIndex and the "       \
    "baselines) — serializes mutators only; snapshot readers never take it") \
  X(kSymbolTable,     24, kLockRankFlagNone,                                 \
    "seq::SymbolTable::mu_ — the append-only name table's internal "        \
    "reader/writer lock; taken under an engine writer lock by Intern")       \
  X(kBufferPoolShard, 30, kLockRankFlagNone,                                 \
    "BufferPool::Shard::mu — one shard of the page table, its clock ring, "  \
    "and every new pin (unpins take no lock)")                               \
  X(kPagerMutation,   40, kLockRankFlagNone,                                 \
    "Pager::mu_ — page-file mutations and the rollback journal")             \
  X(kFrameLoadLatch,  50, kLockRankFlagNone,                                 \
    "internal_buffer::Frame::load_mu — the load-handshake leaf latch")       \
  X(kCacheShard,      60, kLockRankFlagNone,                                 \
    "exec::CachingIndex result shard — leaf in practice: released "          \
    "before the cache calls into the wrapped index")                         \
  X(kServerConnList,  70, kLockRankFlagNone,                                 \
    "server::VistServer::conns_mu_ — the connection/reader-thread lists")    \
  X(kServerQueue,     72, kLockRankFlagNone,                                 \
    "server::VistServer::queue_mu_ — dispatch queue and admission state")    \
  X(kServerConn,      74, kLockRankFlagNone,                                 \
    "server::VistServer per-connection in-flight mutex (Connection::mu)")    \
  X(kServerConnWrite, 76, kLockRankFlagNone,                                 \
    "server::VistServer per-connection write mutex "                         \
    "(Connection::write_mu) — held across the response write only")          \
  X(kTestTransport,   80, kLockRankFlagNone,                                 \
    "server::FaultInjectionTransport::mu_ — proxy link/pump bookkeeping")    \
  X(kMetricsRegistry, 90, kLockRankFlagNone,                                 \
    "obs::MetricsRegistry::mu_ — instrument registration; the absolute "     \
    "leaf, safe to take under any lock")                                     \
  X(kTestPeerA,       100, kLockRankFlagUnordered,                           \
    "lockdep self-test: unordered peer A (cycle-detector exercise only)")    \
  X(kTestPeerB,       100, kLockRankFlagUnordered,                           \
    "lockdep self-test: unordered peer B (cycle-detector exercise only)")
// clang-format on

/// Identity of a lock class. Enumerator values are sequential ids (array
/// indexes into the metadata tables below), NOT the order values — two
/// classes may share an order value only when flagged unordered.
enum class LockRank : uint8_t {
#define VIST_LOCK_RANK_ENUM(name, order, flags, desc) name,
  VIST_LOCK_RANK_LIST(VIST_LOCK_RANK_ENUM)
#undef VIST_LOCK_RANK_ENUM
};

inline constexpr int kNumLockRanks = 0
#define VIST_LOCK_RANK_COUNT(name, order, flags, desc) +1
    VIST_LOCK_RANK_LIST(VIST_LOCK_RANK_COUNT)
#undef VIST_LOCK_RANK_COUNT
    ;

/// Acquisition-order value of `rank` (strictly increasing along legal
/// nesting chains).
constexpr uint32_t LockRankOrder(LockRank rank) {
  constexpr uint32_t kOrders[] = {
#define VIST_LOCK_RANK_ORDER(name, order, flags, desc) order,
      VIST_LOCK_RANK_LIST(VIST_LOCK_RANK_ORDER)
#undef VIST_LOCK_RANK_ORDER
  };
  return kOrders[static_cast<int>(rank)];
}

constexpr uint32_t LockRankFlags(LockRank rank) {
  constexpr uint32_t kFlags[] = {
#define VIST_LOCK_RANK_FLAGS(name, order, flags, desc) flags,
      VIST_LOCK_RANK_LIST(VIST_LOCK_RANK_FLAGS)
#undef VIST_LOCK_RANK_FLAGS
  };
  return kFlags[static_cast<int>(rank)];
}

constexpr const char* LockRankName(LockRank rank) {
  constexpr const char* kNames[] = {
#define VIST_LOCK_RANK_NAME(name, order, flags, desc) #name,
      VIST_LOCK_RANK_LIST(VIST_LOCK_RANK_NAME)
#undef VIST_LOCK_RANK_NAME
  };
  return kNames[static_cast<int>(rank)];
}

}  // namespace vist

#endif  // VIST_COMMON_LOCK_RANKS_H_
