// BufferPool: a clock (second-chance) cache of page frames with pin counts
// and dirty tracking, between the B+ tree and the Pager.
//
// Access pattern: callers Fetch() a page and receive a PageRef — an RAII pin
// that keeps the frame resident and writable. Dirty frames are written back
// when evicted or on FlushAll(). The pool is sized in pages; eviction only
// considers unpinned frames and reports an error if every frame in the
// page's shard is pinned, which would mean a pin leak.
//
// Replacement: each shard keeps its resident frames in a clock ring. A hit
// sets the frame's second-chance bit; the evicting hand clears set bits as
// it passes and takes the first unpinned frame whose bit is clear, so a
// frame hit since the hand last passed survives one sweep. A hit therefore
// touches no list: Fetch pins under the shard mutex, and PageRef::Release
// is one atomic decrement with no lock at all.
//
// Threading contract (docs/CONCURRENCY.md): the pool is safe for any number
// of concurrent Fetch/Release callers. Frame *contents* follow the storage
// layer's single-writer / multi-reader rule — whoever mutates data() (and
// calls MarkDirty) must hold the index-level writer lock, so readers never
// observe a page mid-modification. New/Free/FlushAll are writer-side
// operations under the same rule.
//
// Internal latching, in acquisition order (a thread may only take latches
// left to right — taking them in any other order risks deadlock):
//
//   1. shard mutex   — guards one shard of the page table, its clock ring,
//                      and every new pin. The table is sharded by page id so
//                      concurrent readers on disjoint pages do not contend;
//                      small pools collapse to a single shard.
//   2. pager mutex   — taken inside Pager::WritePage when eviction writes a
//                      dirty victim back while the shard mutex is held.
//   3. frame load latch (Frame::load_mu) — a leaf latch: it is never held
//                      while acquiring a shard or pager mutex, and never
//                      held across I/O. The loading thread performs the disk
//                      read with the frame published in the table in state
//                      kLoading (pinned, so it cannot be evicted); later
//                      fetchers of the same page wait on the latch's condvar
//                      until the load resolves. Publishing the frame before
//                      the read closes the classic double-lookup race where
//                      two threads miss on the same page and both read it
//                      from disk into distinct frames.
//
// Why an unlocked unpin cannot race an evictor: every pin is taken under
// the shard mutex, and the evictor reads pin counts under that mutex too.
// So a count the evictor reads as 0 stays 0 until it lets go: unpins only
// lower counts, and no new pin can start. The unpin's release decrement
// and the evictor's acquire read also order the last holder's writes (page
// data, the dirty flag) before the writeback.
//
// Pin counts, the dirty and needs-validation flags, and the hit/miss
// counters are atomics: they are touched on the hot fetch path and by
// threads that only hold the frame pinned, not the shard mutex.

#ifndef VIST_STORAGE_BUFFER_POOL_H_
#define VIST_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/pager.h"

namespace vist {

class BufferPool;

namespace internal_buffer {

struct Frame {
  PageId id = kInvalidPageId;
  std::unique_ptr<char[]> data;

  /// Pins held on this frame. Raised only under the shard mutex; lowered
  /// without it (PageRef::Release). See the file comment.
  std::atomic<int> pin_count{0};
  std::atomic<bool> dirty{false};
  // Set when the frame was filled from disk and no consumer has validated
  // its contents yet (cleared via PageRef::MarkValidated). Two readers may
  // validate the same resident frame concurrently; the work is idempotent.
  std::atomic<bool> needs_validation{false};

  /// Load handshake. kLoading frames are resident and pinned but their data
  /// is still being read from disk by one thread; fetchers wait on load_cv.
  enum LoadState : int { kReady = 0, kLoading = 1, kFailed = 2 };
  std::atomic<int> load_state{kReady};
  Mutex load_mu{LockRank::kFrameLoadLatch};  // leaf latch
  // Signaled when load_state leaves kLoading (any-lock flavor so waits can
  // keep the annotated mutex capability; see Mutex::Await).
  std::condition_variable_any load_cv;
  Status load_status VIST_GUARDED_BY(load_mu);

  // The frame's slot in the shard's clock ring, and its second-chance bit
  // (set by a hit, cleared by the passing hand); guarded by the shard mutex.
  size_t slot = 0;
  bool referenced = false;
};

}  // namespace internal_buffer

/// RAII pin on a cached page. Movable, not copyable. While a PageRef exists
/// the underlying frame stays in memory at a stable address.
class PageRef {
 public:
  PageRef() = default;
  PageRef(PageRef&& other) noexcept { *this = std::move(other); }
  PageRef& operator=(PageRef&& other) noexcept;
  ~PageRef();

  PageRef(const PageRef&) = delete;
  PageRef& operator=(const PageRef&) = delete;

  bool valid() const { return frame_ != nullptr; }
  PageId id() const { return frame_->id; }
  char* data() { return frame_->data.get(); }
  const char* data() const { return frame_->data.get(); }

  /// Marks the page as modified; it will be written back before eviction.
  /// Callers must hold the index-level writer lock (see the file comment).
  void MarkDirty() {
    frame_->dirty.store(true, std::memory_order_relaxed);
  }

  /// True when the frame came from disk and has not been validated since.
  /// Callers that structurally check untrusted pages (the B+ tree) do so
  /// only when this is set, then call MarkValidated — once per residence,
  /// not per fetch (concurrent duplicate validations are harmless).
  bool NeedsValidation() const {
    return frame_->needs_validation.load(std::memory_order_relaxed);
  }
  void MarkValidated() {
    frame_->needs_validation.store(false, std::memory_order_relaxed);
  }

  /// Drops the pin early (also done by the destructor). Lock-free: one
  /// atomic decrement (see the file comment).
  void Release();

 private:
  friend class BufferPool;
  explicit PageRef(internal_buffer::Frame* frame) : frame_(frame) {}

  internal_buffer::Frame* frame_ = nullptr;
};

class BufferPool {
 public:
  /// `capacity` is the maximum number of resident frames, divided evenly
  /// across the internal shards (the pin-leak "pool exhausted" bound is
  /// therefore per shard). The pager must outlive the pool.
  BufferPool(Pager* pager, size_t capacity);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Returns a pinned reference to page `id`, reading it from disk on miss.
  /// Safe for concurrent callers; concurrent fetches of one absent page
  /// perform a single disk read.
  Result<PageRef> Fetch(PageId id);

  /// Allocates a new page (via the pager), zero-fills it in cache, and
  /// returns it pinned and dirty. Writer-side.
  Result<PageRef> New();

  /// Frees page `id` in the pager and drops any cached frame. The page must
  /// not be pinned. Writer-side.
  Status Free(PageId id);

  /// Writes back every dirty frame (does not evict). Writer-side.
  Status FlushAll();

  /// Test hook: discards every cached frame, dirty or not, as a crashed
  /// process would. Outstanding pins become dangling — callers must have
  /// released them.
  void SimulateCrashForTesting();

  size_t capacity() const { return capacity_; }
  uint64_t hit_count() const {
    return hits_.load(std::memory_order_relaxed);
  }
  uint64_t miss_count() const {
    return misses_.load(std::memory_order_relaxed);
  }
  /// Frames holding at least one pin (pin-leak checks in tests).
  size_t pinned_frames() const;

 private:
  using Frame = internal_buffer::Frame;

  struct Shard {
    Mutex mu{LockRank::kBufferPoolShard};
    std::unordered_map<PageId, std::unique_ptr<Frame>> frames
        VIST_GUARDED_BY(mu);
    // The clock ring: one slot per resident frame, pinned or not; slots of
    // dropped frames are null and listed in free_slots for reuse. The hand
    // is the next slot the eviction sweep inspects.
    std::vector<Frame*> ring VIST_GUARDED_BY(mu);
    std::vector<size_t> free_slots VIST_GUARDED_BY(mu);
    size_t hand VIST_GUARDED_BY(mu) = 0;
    size_t capacity = 0;  // fixed after construction
  };

  Shard& ShardFor(PageId id);

  /// Drops a pin on a frame whose disk load failed; the last such pin
  /// removes the frame from the table, so a later Fetch retries the read.
  void DropFailedPin(Frame* frame);
  /// Removes an unpinned frame from the table and its ring slot.
  void RemoveFrame(Shard& shard, Frame* frame) VIST_REQUIRES(shard.mu);
  /// Waits out a concurrent load of `frame`, then reports how it resolved.
  Status ResolveLoad(Frame* frame);
  /// Creates, pins, and publishes a frame for `id` in `shard` (mutex held),
  /// evicting as needed. With `loading` the frame is published in state
  /// kLoading and the caller must complete the load handshake.
  Result<Frame*> InstallFrame(Shard& shard, PageId id, bool loading)
      VIST_REQUIRES(shard.mu);
  /// Sweeps the clock hand for a victim in `shard` (mutex held): an
  /// unpinned frame whose second-chance bit is clear, clearing set bits on
  /// the way. Two turns of the hand find one if any frame is unpinned.
  /// Writes the victim back first when dirty. Acquires the pager mutex (inside
  /// Pager::WritePage) below the shard mutex — the one annotated site that
  /// exercises the shard -> pager edge of the lock order.
  Status EvictOne(Shard& shard) VIST_REQUIRES(shard.mu);

  Pager* pager_;
  size_t capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

}  // namespace vist

#endif  // VIST_STORAGE_BUFFER_POOL_H_
