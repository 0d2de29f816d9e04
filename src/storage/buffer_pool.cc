#include "storage/buffer_pool.h"

#include <cstring>

#include "common/logging.h"
#include "obs/metrics.h"

namespace vist {
namespace {

// Metric reference: docs/OBSERVABILITY.md (buffer pool section).
struct PoolMetrics {
  obs::Counter& hits = obs::GetCounter("storage.buffer_pool.hits");
  obs::Counter& misses = obs::GetCounter("storage.buffer_pool.misses");
  obs::Counter& evictions = obs::GetCounter("storage.buffer_pool.evictions");
  obs::Counter& dirty_writebacks =
      obs::GetCounter("storage.buffer_pool.dirty_writebacks");
  obs::Gauge& resident_frames =
      obs::GetGauge("storage.buffer_pool.resident_frames");

  static PoolMetrics& Get() {
    static PoolMetrics metrics;
    return metrics;
  }
};

// Picks the shard count for a pool of `capacity` frames: the largest power
// of two <= 16 that still leaves every shard at least 64 frames, so the
// per-shard "all pinned" bound never gets tight enough to fail workloads
// that a single-shard pool of the same capacity would serve. Small pools
// (every unit test uses 8-16 frames) collapse to one shard, which preserves
// the exact global clock and exhaustion semantics they assert.
size_t PickShardCount(size_t capacity) {
  size_t shards = 1;
  while (shards < 16 && capacity / (shards * 2) >= 64) shards *= 2;
  return shards;
}

}  // namespace

using internal_buffer::Frame;

PageRef& PageRef::operator=(PageRef&& other) noexcept {
  if (this != &other) {
    Release();
    frame_ = other.frame_;
    other.frame_ = nullptr;
  }
  return *this;
}

PageRef::~PageRef() { Release(); }

void PageRef::Release() {
  if (frame_ != nullptr) {
    // No shard mutex: an evictor that reads 0 under the mutex cannot race
    // a new pin (file comment). Release publishes this holder's writes to
    // that evictor; the frame may be gone as soon as the count reaches 0.
    const int prev = frame_->pin_count.fetch_sub(1, std::memory_order_release);
    VIST_CHECK(prev > 0);
    frame_ = nullptr;
  }
}

BufferPool::BufferPool(Pager* pager, size_t capacity)
    : pager_(pager), capacity_(capacity) {
  VIST_CHECK(capacity_ >= 8) << "buffer pool too small to hold a tree path";
  size_t n = PickShardCount(capacity_);
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto shard = std::make_unique<Shard>();
    // Distribute capacity evenly; the first shards absorb any remainder.
    shard->capacity = capacity_ / n + (i < capacity_ % n ? 1 : 0);
    shards_.push_back(std::move(shard));
  }
}

BufferPool::~BufferPool() {
  Status s = FlushAll();
  if (!s.ok()) VIST_LOG(Error) << "buffer pool close: " << s.ToString();
  size_t resident = 0;
  for (auto& shard : shards_) {
    MutexLock lock(shard->mu);
    resident += shard->frames.size();
    for (auto& [id, frame] : shard->frames) {
      if (frame->pin_count.load(std::memory_order_acquire) != 0) {
        VIST_LOG(Error) << "page " << id
                        << " still pinned at pool destruction";
      }
    }
  }
  PoolMetrics::Get().resident_frames.Add(-static_cast<int64_t>(resident));
}

BufferPool::Shard& BufferPool::ShardFor(PageId id) {
  // Fibonacci hashing spreads the sequential ids the pager allocates.
  uint64_t h = id * UINT64_C(0x9E3779B97F4A7C15);
  return *shards_[(h >> 56) & (shards_.size() - 1)];
}

size_t BufferPool::pinned_frames() const {
  size_t pinned = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    for (const auto& [id, frame] : shard->frames) {
      if (frame->pin_count.load(std::memory_order_acquire) != 0) ++pinned;
    }
  }
  return pinned;
}

void BufferPool::RemoveFrame(Shard& shard, Frame* frame) {
  shard.ring[frame->slot] = nullptr;
  shard.free_slots.push_back(frame->slot);
  shard.frames.erase(frame->id);
  PoolMetrics::Get().resident_frames.Add(-1);
}

void BufferPool::DropFailedPin(Frame* frame) {
  Shard& shard = ShardFor(frame->id);
  MutexLock lock(shard.mu);
  int prev = frame->pin_count.fetch_sub(1, std::memory_order_acq_rel);
  VIST_CHECK(prev > 0);
  // The last pin removes a failed frame so a later Fetch retries the read
  // instead of serving garbage.
  if (prev == 1) RemoveFrame(shard, frame);
}

Status BufferPool::ResolveLoad(Frame* frame) {
  if (frame->load_state.load(std::memory_order_acquire) == Frame::kReady) {
    return Status::OK();
  }
  MutexLock lock(frame->load_mu);
  frame->load_mu.Await(frame->load_cv, [frame] {
    return frame->load_state.load(std::memory_order_relaxed) !=
           Frame::kLoading;
  });
  if (frame->load_state.load(std::memory_order_acquire) == Frame::kReady) {
    return Status::OK();
  }
  return frame->load_status;
}

Status BufferPool::EvictOne(Shard& shard) {
  const size_t slots = shard.ring.size();
  for (size_t step = 0; step < 2 * slots; ++step) {
    Frame* victim = shard.ring[shard.hand];
    shard.hand = (shard.hand + 1) % slots;
    // Unpinned under the shard mutex means no PageRef exists and none can
    // appear, so nobody can race MarkDirty or a data mutation with this
    // writeback.
    if (victim == nullptr ||
        victim->pin_count.load(std::memory_order_acquire) != 0) {
      continue;
    }
    if (victim->referenced) {
      victim->referenced = false;  // its second chance
      continue;
    }
    if (victim->dirty.load(std::memory_order_relaxed)) {
      PoolMetrics::Get().dirty_writebacks.Increment();
      // On failure the victim stays where it was (still unpinned, still in
      // the ring): removing it now would strand a stale frame in the page
      // table.
      VIST_RETURN_IF_ERROR(pager_->WritePage(victim->id, victim->data.get()));
      victim->dirty.store(false, std::memory_order_relaxed);
    }
    RemoveFrame(shard, victim);
    PoolMetrics::Get().evictions.Increment();
    return Status::OK();
  }
  return Status::InvalidArgument(
      "buffer pool exhausted: all frames pinned (pin leak?)");
}

Result<Frame*> BufferPool::InstallFrame(Shard& shard, PageId id,
                                        bool loading) {
  while (shard.frames.size() >= shard.capacity) {
    VIST_RETURN_IF_ERROR(EvictOne(shard));
  }
  auto frame = std::make_unique<Frame>();
  frame->id = id;
  frame->data = std::make_unique<char[]>(pager_->page_size());
  frame->pin_count.store(1, std::memory_order_relaxed);
  if (shard.free_slots.empty()) {
    frame->slot = shard.ring.size();
    shard.ring.push_back(frame.get());
  } else {
    frame->slot = shard.free_slots.back();
    shard.free_slots.pop_back();
    shard.ring[frame->slot] = frame.get();
  }
  if (loading) {
    frame->load_state.store(Frame::kLoading, std::memory_order_relaxed);
  } else {
    memset(frame->data.get(), 0, pager_->page_size());
  }
  Frame* raw = frame.get();
  shard.frames.emplace(id, std::move(frame));
  PoolMetrics::Get().resident_frames.Add(1);
  return raw;
}

Result<PageRef> BufferPool::Fetch(PageId id) {
  Shard& shard = ShardFor(id);
  Frame* frame = nullptr;
  bool loader = false;
  {
    MutexLock lock(shard.mu);
    auto it = shard.frames.find(id);
    if (it != shard.frames.end()) {
      frame = it->second.get();
      frame->pin_count.fetch_add(1, std::memory_order_relaxed);
      frame->referenced = true;
    } else {
      // Publish the frame (pinned, kLoading) before the disk read so a
      // concurrent Fetch of the same page waits on it instead of doing a
      // second read into a second frame.
      VIST_ASSIGN_OR_RETURN(frame, InstallFrame(shard, id, /*loading=*/true));
      loader = true;
    }
  }

  auto& thread_counters = obs::ThisThreadStorageCounters();
  if (!loader) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    ++thread_counters.buffer_pool_hits;
    PoolMetrics::Get().hits.Increment();
    Status s = ResolveLoad(frame);
    if (!s.ok()) {
      DropFailedPin(frame);
      return s;
    }
    return PageRef(frame);
  }

  misses_.fetch_add(1, std::memory_order_relaxed);
  ++thread_counters.buffer_pool_misses;
  PoolMetrics::Get().misses.Increment();
  Status s = pager_->ReadPage(id, frame->data.get());
  if (s.ok()) {
    // Order matters for waiters: the validation flag must be visible
    // before the release-store that declares the frame ready.
    frame->needs_validation.store(true, std::memory_order_relaxed);
  }
  {
    MutexLock lock(frame->load_mu);
    frame->load_status = s;
    frame->load_state.store(s.ok() ? Frame::kReady : Frame::kFailed,
                            std::memory_order_release);
  }
  frame->load_cv.notify_all();
  if (!s.ok()) {
    DropFailedPin(frame);
    return s;
  }
  return PageRef(frame);
}

Result<PageRef> BufferPool::New() {
  VIST_ASSIGN_OR_RETURN(PageId id, pager_->AllocatePage());
  Shard& shard = ShardFor(id);
  Frame* frame = nullptr;
  {
    MutexLock lock(shard.mu);
    // A freed-and-reallocated page id must not revive its stale frame;
    // Free() dropped it, so the id cannot be cached here.
    VIST_CHECK(shard.frames.find(id) == shard.frames.end());
    VIST_ASSIGN_OR_RETURN(frame, InstallFrame(shard, id, /*loading=*/false));
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  ++obs::ThisThreadStorageCounters().buffer_pool_misses;
  PoolMetrics::Get().misses.Increment();
  frame->dirty.store(true, std::memory_order_relaxed);
  return PageRef(frame);
}

Status BufferPool::Free(PageId id) {
  Shard& shard = ShardFor(id);
  {
    MutexLock lock(shard.mu);
    auto it = shard.frames.find(id);
    if (it != shard.frames.end()) {
      Frame* frame = it->second.get();
      if (frame->pin_count.load(std::memory_order_acquire) != 0) {
        return Status::InvalidArgument("Free of a pinned page");
      }
      RemoveFrame(shard, frame);
    }
  }
  return pager_->FreePage(id);
}

void BufferPool::SimulateCrashForTesting() {
  for (auto& shard : shards_) {
    MutexLock lock(shard->mu);
    PoolMetrics::Get().resident_frames.Add(
        -static_cast<int64_t>(shard->frames.size()));
    shard->ring.clear();
    shard->free_slots.clear();
    shard->hand = 0;
    shard->frames.clear();
  }
}

Status BufferPool::FlushAll() {
  for (auto& shard : shards_) {
    MutexLock lock(shard->mu);
    for (auto& [id, frame] : shard->frames) {
      if (frame->dirty.load(std::memory_order_relaxed)) {
        PoolMetrics::Get().dirty_writebacks.Increment();
        VIST_RETURN_IF_ERROR(pager_->WritePage(id, frame->data.get()));
        frame->dirty.store(false, std::memory_order_relaxed);
      }
    }
  }
  return Status::OK();
}

}  // namespace vist
