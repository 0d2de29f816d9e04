#include "storage/pager.h"

#include <cstring>
#include <filesystem>
#include <vector>

#include "common/coding.h"
#include "common/hash.h"
#include "common/logging.h"
#include "obs/metrics.h"

namespace vist {
namespace {

// Metric reference: docs/OBSERVABILITY.md (pager section).
struct PagerMetrics {
  obs::Counter& page_reads = obs::GetCounter("storage.pager.page_reads");
  obs::Counter& page_writes = obs::GetCounter("storage.pager.page_writes");
  obs::Counter& pages_allocated =
      obs::GetCounter("storage.pager.pages_allocated");
  obs::Counter& pages_freed = obs::GetCounter("storage.pager.pages_freed");
  obs::Counter& freelist_reuses =
      obs::GetCounter("storage.pager.freelist_reuses");
  obs::Counter& journal_pages = obs::GetCounter("storage.pager.journal_pages");
  obs::Counter& syncs = obs::GetCounter("storage.pager.syncs");
  obs::Counter& journal_syncs =
      obs::GetCounter("storage.pager.journal_syncs");
  obs::Counter& checksum_failures =
      obs::GetCounter("storage.checksum_failures");
  obs::Counter& io_retries = obs::GetCounter("storage.io_retries");

  static PagerMetrics& Get() {
    static PagerMetrics metrics;
    return metrics;
  }
};

// "VISTPGR2": version 2 added the per-page checksum trailer.
constexpr uint64_t kMagic = 0x5649535450475232ULL;
constexpr uint64_t kJournalMagic = 0x564953544a4e4c31ULL;  // "VISTJNL1"

// Header field offsets within page 0.
constexpr size_t kMagicOffset = 0;
constexpr size_t kPageSizeOffset = 8;
constexpr size_t kPageCountOffset = 12;
constexpr size_t kFreelistOffset = 20;
constexpr size_t kMetaSlotsOffset = 28;

// Journal header: magic(8) page_size(4) page_count(8) freelist(8) metas.
constexpr size_t kJournalHeaderBytes = 8 + 4 + 8 + 8 + 8 * kNumMetaSlots;

// Transient I/O errors are retried this many times in total before they
// surface; each retry bumps storage.io_retries.
constexpr int kMaxIoAttempts = 3;

std::string JournalPath(const std::string& path) { return path + ".journal"; }

// The upper bound keeps 16-bit in-page offsets valid.
bool ValidPageSize(uint32_t page_size) {
  return page_size >= 512 && page_size <= 32768 &&
         (page_size & (page_size - 1)) == 0;
}

// Reads exactly `n` bytes at `offset`, retrying transient errors. A short
// read is Corruption (the caller expected the bytes to exist).
Status ReadFull(File* file, uint64_t offset, char* buf, size_t n,
                const std::string& path) {
  Status status;
  for (int attempt = 0; attempt < kMaxIoAttempts; ++attempt) {
    if (attempt > 0) PagerMetrics::Get().io_retries.Increment();
    size_t got = 0;
    status = file->ReadAt(offset, buf, n, &got);
    if (status.ok()) {
      if (got != n) {
        return Status::Corruption("short read (" + std::to_string(got) +
                                  " of " + std::to_string(n) +
                                  " bytes) at offset " +
                                  std::to_string(offset) + " in " + path);
      }
      return Status::OK();
    }
  }
  return status;
}

// Writes exactly `n` bytes at `offset`, retrying transient errors.
Status WriteFull(File* file, uint64_t offset, const char* buf, size_t n) {
  Status status;
  for (int attempt = 0; attempt < kMaxIoAttempts; ++attempt) {
    if (attempt > 0) PagerMetrics::Get().io_retries.Increment();
    status = file->WriteAt(offset, buf, n);
    if (status.ok()) return status;
  }
  return status;
}

// Writes the header page from explicit fields (shared by the pager and by
// journal recovery, which runs before a Pager object exists).
Status WriteHeaderRaw(File* file, uint32_t page_size, uint64_t page_count,
                      PageId freelist, const PageId* meta_slots) {
  std::vector<char> buf(page_size, 0);
  EncodeFixed64LE(buf.data() + kMagicOffset, kMagic);
  EncodeFixed32LE(buf.data() + kPageSizeOffset, page_size);
  EncodeFixed64LE(buf.data() + kPageCountOffset, page_count);
  EncodeFixed64LE(buf.data() + kFreelistOffset, freelist);
  for (int i = 0; i < kNumMetaSlots; ++i) {
    EncodeFixed64LE(buf.data() + kMetaSlotsOffset + 8 * i, meta_slots[i]);
  }
  EncodeFixed64LE(buf.data() + page_size - kPageTrailerSize,
                  ComputePageChecksum(0, buf.data(), page_size));
  return WriteFull(file, 0, buf.data(), page_size);
}

uint64_t EntryChecksum(PageId id, const char* data, uint32_t page_size) {
  char id_buf[8];
  EncodeFixed64LE(id_buf, id);
  return Hash64(Slice(data, page_size), Hash64(Slice(id_buf, 8)));
}

}  // namespace

uint64_t ComputePageChecksum(PageId id, const char* page,
                             uint32_t page_size) {
  char id_buf[8];
  EncodeFixed64LE(id_buf, id);
  return Hash64(Slice(page, page_size - kPageTrailerSize),
                Hash64(Slice(id_buf, 8)));
}

Result<PagerFileHeader> DecodePagerHeader(const char* page,
                                          uint32_t page_size) {
  const uint64_t stored =
      DecodeFixed64LE(page + page_size - kPageTrailerSize);
  if (stored != ComputePageChecksum(0, page, page_size)) {
    return Status::Corruption("pager header checksum mismatch");
  }
  if (DecodeFixed64LE(page + kMagicOffset) != kMagic) {
    return Status::Corruption("bad pager magic");
  }
  PagerFileHeader header;
  header.page_size = DecodeFixed32LE(page + kPageSizeOffset);
  header.page_count = DecodeFixed64LE(page + kPageCountOffset);
  header.freelist_head = DecodeFixed64LE(page + kFreelistOffset);
  for (int i = 0; i < kNumMetaSlots; ++i) {
    header.meta_slots[i] = DecodeFixed64LE(page + kMetaSlotsOffset + 8 * i);
  }
  if (header.page_size != page_size) {
    return Status::Corruption("pager header page_size mismatch");
  }
  if (header.page_count == 0) {
    return Status::Corruption("pager header claims zero pages");
  }
  if (header.freelist_head >= header.page_count) {
    return Status::Corruption("pager freelist head out of range");
  }
  return header;
}

Pager::Pager(Env* env, std::unique_ptr<File> file, std::string path,
             const PagerOptions& options)
    : env_(env),
      file_(std::move(file)),
      path_(std::move(path)),
      page_size_(options.page_size),
      durability_(options.durability) {
  dir_ = std::filesystem::path(path_).parent_path().string();
  if (dir_.empty()) dir_ = ".";
}

Pager::~Pager() {
  if (file_ != nullptr && !crashed_) {
    Status s = Sync();
    if (!s.ok()) {
      VIST_LOG(Error) << "pager close: " << s.ToString();
    }
  }
}

Result<std::unique_ptr<Pager>> Pager::Open(const std::string& path,
                                           const PagerOptions& options) {
  if (!ValidPageSize(options.page_size)) {
    return Status::InvalidArgument(
        "page_size must be a power of two in [512, 32768]");
  }
  Env* env = options.env != nullptr ? options.env : Env::Default();
  if (!options.create) {
    VIST_ASSIGN_OR_RETURN(bool exists, env->FileExists(path));
    if (!exists) return Status::NotFound(path + " does not exist");
  }
  Env::OpenOptions open_options;
  open_options.create = options.create;
  VIST_ASSIGN_OR_RETURN(std::unique_ptr<File> file,
                        env->Open(path, open_options));
  VIST_ASSIGN_OR_RETURN(uint64_t file_size, file->Size());

  // A leftover journal means the last batch never committed: roll back to
  // the committed state before reading anything.
  VIST_ASSIGN_OR_RETURN(bool has_journal,
                        env->FileExists(JournalPath(path)));
  if (file_size > 0 && has_journal) {
    VIST_RETURN_IF_ERROR(
        RecoverFromJournal(env, file.get(), path, options.durability));
    VIST_ASSIGN_OR_RETURN(file_size, file->Size());
  }
  if (file_size == 0 && !options.create) {
    return Status::NotFound(path + " holds no pages");
  }

  std::unique_ptr<Pager> pager(
      new Pager(env, std::move(file), path, options));
  // The object is not yet shared, but the guarded header fields are read
  // and written below; holding the (uncontended) mutex keeps the locking
  // contract uniform for the thread-safety analysis.
  MutexLock lock(pager->mu_);
  if (file_size == 0) {
    // A new file: Sync writes its first header, after the first batch's
    // journal. A crash inside that batch leaves the journal to restore the
    // header from (or, under kPowerLoss, an empty file), never a torn
    // header alone.
    pager->header_dirty_ = true;
  } else {
    // The header records the file's page size at a fixed offset; read it
    // before the full, checksummed header page.
    char head[kPageSizeOffset + 4];
    VIST_RETURN_IF_ERROR(
        ReadFull(pager->file_.get(), 0, head, sizeof(head), path));
    const uint32_t stored = DecodeFixed32LE(head + kPageSizeOffset);
    if (!ValidPageSize(stored)) {
      return Status::Corruption(path + " records an invalid page_size " +
                                std::to_string(stored));
    }
    pager->page_size_ = stored;
    VIST_RETURN_IF_ERROR(pager->ReadHeader());
    if (file_size <
        pager->page_count() * static_cast<uint64_t>(pager->page_size_)) {
      return Status::Corruption(
          path + " is truncated: header claims " +
          std::to_string(pager->page_count()) + " pages but the file holds " +
          std::to_string(file_size) + " bytes");
    }
  }
  return pager;
}

Status Pager::RecoverFromJournal(Env* env, File* file,
                                 const std::string& path,
                                 DurabilityLevel durability) {
  const std::string journal_path = JournalPath(path);
  Env::OpenOptions ro;
  ro.create = false;
  ro.read_only = true;
  VIST_ASSIGN_OR_RETURN(std::unique_ptr<File> journal,
                        env->Open(journal_path, ro));

  char header[kJournalHeaderBytes];
  size_t got = 0;
  VIST_RETURN_IF_ERROR(journal->ReadAt(0, header, sizeof(header), &got));
  if (got != sizeof(header)) {
    // Torn before the header finished: nothing was overwritten yet (the
    // journal is written before the first data write), so just drop it.
    journal.reset();
    VIST_RETURN_IF_ERROR(env->DeleteFile(journal_path));
    return Status::OK();
  }
  const uint32_t page_size = DecodeFixed32LE(header + 8);
  if (DecodeFixed64LE(header) != kJournalMagic || !ValidPageSize(page_size)) {
    return Status::Corruption("bad journal header for " + path);
  }
  const uint64_t page_count = DecodeFixed64LE(header + 12);
  const PageId freelist = DecodeFixed64LE(header + 20);
  PageId meta_slots[kNumMetaSlots];
  for (int i = 0; i < kNumMetaSlots; ++i) {
    meta_slots[i] = DecodeFixed64LE(header + 28 + 8 * i);
  }

  // Read every complete entry up front so a checksum failure can be
  // classified: an invalid entry at the very tail is a torn write from the
  // crash (its data overwrite never happened — safe to skip), but an
  // invalid entry *followed by valid ones* means the journal itself is
  // damaged and a silent partial rollback would corrupt the file.
  const size_t entry_size = 8 + page_size + 8;
  struct JournalEntry {
    PageId id;
    std::vector<char> data;
  };
  std::vector<JournalEntry> entries;
  size_t invalid_at = SIZE_MAX;
  uint64_t offset = kJournalHeaderBytes;
  std::vector<char> entry(entry_size);
  while (true) {
    got = 0;
    VIST_RETURN_IF_ERROR(
        journal->ReadAt(offset, entry.data(), entry_size, &got));
    if (got != entry_size) break;  // torn tail (or clean end of journal)
    offset += entry_size;
    const PageId id = DecodeFixed64LE(entry.data());
    const uint64_t checksum = DecodeFixed64LE(entry.data() + 8 + page_size);
    if (checksum != EntryChecksum(id, entry.data() + 8, page_size)) {
      if (invalid_at == SIZE_MAX) invalid_at = entries.size();
      continue;
    }
    if (invalid_at != SIZE_MAX) {
      return Status::Corruption(
          "journal for " + path + " has a torn entry at index " +
          std::to_string(invalid_at) + " followed by valid entries");
    }
    entries.push_back({id, std::vector<char>(entry.begin() + 8,
                                             entry.begin() + 8 + page_size)});
  }
  journal.reset();

  for (const JournalEntry& e : entries) {
    VIST_RETURN_IF_ERROR(WriteFull(file, e.id * page_size, e.data.data(),
                                   page_size));
  }
  VIST_RETURN_IF_ERROR(
      WriteHeaderRaw(file, page_size, page_count, freelist, meta_slots));
  VIST_RETURN_IF_ERROR(file->Truncate(page_count * page_size));
  VIST_RETURN_IF_ERROR(file->Sync());
  VIST_RETURN_IF_ERROR(env->DeleteFile(journal_path));
  if (durability == DurabilityLevel::kPowerLoss) {
    std::string dir = std::filesystem::path(path).parent_path().string();
    if (dir.empty()) dir = ".";
    VIST_RETURN_IF_ERROR(env->SyncDir(dir));
  }
  return Status::OK();
}

Status Pager::EnsureBatch() {
  // journal_ can be null with in_batch_ still set when a previous Sync()
  // synced the data file but failed to delete the journal; the batch is
  // durable, so starting a fresh journal (truncating the stale one) is
  // correct.
  if (in_batch_ && journal_ != nullptr) return Status::OK();
  Env::OpenOptions options;
  options.truncate = true;
  VIST_ASSIGN_OR_RETURN(journal_, env_->Open(JournalPath(path_), options));
  char header[kJournalHeaderBytes];
  EncodeFixed64LE(header, kJournalMagic);
  EncodeFixed32LE(header + 8, page_size_);
  EncodeFixed64LE(header + 12, page_count());
  EncodeFixed64LE(header + 20, freelist_head_);
  for (int i = 0; i < kNumMetaSlots; ++i) {
    EncodeFixed64LE(header + 28 + 8 * i, meta_slots_[i]);
  }
  VIST_RETURN_IF_ERROR(journal_->Append(header, sizeof(header)));
  batch_start_page_count_ = page_count();
  journaled_.clear();
  in_batch_ = true;
  journal_dirty_ = true;
  journal_dir_synced_ = false;
  return Status::OK();
}

Status Pager::JournalPage(PageId id) {
  VIST_DCHECK(in_batch_);
  if (id >= batch_start_page_count_) return Status::OK();  // new this batch
  if (journaled_.count(id) != 0) return Status::OK();      // already logged
  PagerMetrics::Get().journal_pages.Increment();
  std::vector<char> entry(8 + page_size_ + 8);
  EncodeFixed64LE(entry.data(), id);
  // The pre-image read verifies the page checksum: journaling an already
  // corrupt page would launder the damage into "committed" state.
  VIST_RETURN_IF_ERROR(ReadPage(id, entry.data() + 8));
  EncodeFixed64LE(entry.data() + 8 + page_size_,
                  EntryChecksum(id, entry.data() + 8, page_size_));
  VIST_RETURN_IF_ERROR(journal_->Append(entry.data(), entry.size()));
  journaled_.insert(id);
  journal_dirty_ = true;
  return Status::OK();
}

Status Pager::SyncJournalForOverwrite(PageId id) {
  if (durability_ != DurabilityLevel::kPowerLoss) return Status::OK();
  if (id >= batch_start_page_count_) return Status::OK();  // not an overwrite
  if (!journal_dirty_) return Status::OK();
  PagerMetrics::Get().journal_syncs.Increment();
  VIST_RETURN_IF_ERROR(journal_->Sync());
  if (!journal_dir_synced_) {
    // Makes the journal's directory entry durable (and, transitively, the
    // removal of the previous batch's journal).
    VIST_RETURN_IF_ERROR(env_->SyncDir(dir_));
    journal_dir_synced_ = true;
  }
  journal_dirty_ = false;
  return Status::OK();
}

Status Pager::WriteHeader() {
  VIST_RETURN_IF_ERROR(WriteHeaderRaw(file_.get(), page_size_, page_count(),
                                      freelist_head_, meta_slots_));
  header_dirty_ = false;
  return Status::OK();
}

Status Pager::ReadHeader() {
  std::vector<char> buf(page_size_);
  VIST_RETURN_IF_ERROR(
      ReadFull(file_.get(), 0, buf.data(), page_size_, path_));
  auto header = DecodePagerHeader(buf.data(), page_size_);
  if (!header.ok()) {
    if (header.status().IsCorruption() &&
        header.status().message().find("checksum") != std::string::npos) {
      PagerMetrics::Get().checksum_failures.Increment();
    }
    return Status::Corruption(header.status().message() + " in " + path_);
  }
  page_size_ = header->page_size;
  page_count_.store(header->page_count, std::memory_order_release);
  freelist_head_ = header->freelist_head;
  for (int i = 0; i < kNumMetaSlots; ++i) {
    meta_slots_[i] = header->meta_slots[i];
  }
  return Status::OK();
}

Status Pager::ReadPage(PageId id, char* buf) {
  // Deliberately lock-free: pread is an independent system call per caller,
  // and the bound below is an atomic. See the file comment in pager.h.
  if (id == kInvalidPageId || id >= page_count()) {
    return Status::InvalidArgument("ReadPage: page id out of range");
  }
  PagerMetrics::Get().page_reads.Increment();
  const uint64_t offset = id * static_cast<uint64_t>(page_size_);
  VIST_RETURN_IF_ERROR(ReadFull(file_.get(), offset, buf, page_size_, path_));
  const uint64_t stored =
      DecodeFixed64LE(buf + page_size_ - kPageTrailerSize);
  if (stored != ComputePageChecksum(id, buf, page_size_)) {
    PagerMetrics::Get().checksum_failures.Increment();
    return Status::Corruption("page " + std::to_string(id) +
                              " checksum mismatch at file offset " +
                              std::to_string(offset) + " in " + path_);
  }
  return Status::OK();
}

Status Pager::WritePage(PageId id, const char* buf) {
  MutexLock lock(mu_);
  return WritePageLocked(id, buf);
}

Status Pager::WritePageLocked(PageId id, const char* buf) {
  if (id == kInvalidPageId || id >= page_count()) {
    return Status::InvalidArgument("WritePage: page id out of range");
  }
  PagerMetrics::Get().page_writes.Increment();
  VIST_RETURN_IF_ERROR(EnsureBatch());
  VIST_RETURN_IF_ERROR(JournalPage(id));
  VIST_RETURN_IF_ERROR(SyncJournalForOverwrite(id));
  write_scratch_.assign(buf, page_size_);
  EncodeFixed64LE(write_scratch_.data() + page_size_ - kPageTrailerSize,
                  ComputePageChecksum(id, write_scratch_.data(), page_size_));
  return WriteFull(file_.get(), id * static_cast<uint64_t>(page_size_),
                   write_scratch_.data(), page_size_);
}

Result<PageId> Pager::AllocatePage() {
  MutexLock lock(mu_);
  VIST_RETURN_IF_ERROR(EnsureBatch());
  header_dirty_ = true;
  PagerMetrics::Get().pages_allocated.Increment();
  if (freelist_head_ != kInvalidPageId) {
    PagerMetrics::Get().freelist_reuses.Increment();
    PageId id = freelist_head_;
    // Full checksummed read: freelist damage (cycles via bit flips, torn
    // free-page writes) surfaces here instead of corrupting allocation.
    std::vector<char> page(page_size_);
    VIST_RETURN_IF_ERROR(ReadPage(id, page.data()));
    freelist_head_ = DecodeFixed64LE(page.data());
    if (freelist_head_ >= page_count()) {
      return Status::Corruption("freelist next pointer " +
                                std::to_string(freelist_head_) +
                                " out of range in " + path_);
    }
    return id;
  }
  // Publishing the grown count before the file is extended is safe: no
  // reader holds a reference to the new id until the caller links it into
  // a tree, which happens after this returns.
  PageId id = page_count_.fetch_add(1, std::memory_order_acq_rel);
  // Extend the file so subsequent ReadPage of this id succeeds; WritePage
  // stamps a valid trailer (and skips journaling, as the page is new).
  std::vector<char> zero(page_size_, 0);
  VIST_RETURN_IF_ERROR(WritePageLocked(id, zero.data()));
  return id;
}

Status Pager::FreePage(PageId id) {
  MutexLock lock(mu_);
  if (id == kInvalidPageId || id >= page_count()) {
    return Status::InvalidArgument("FreePage: page id out of range");
  }
  PagerMetrics::Get().pages_freed.Increment();
  // Rewrite the whole page (zeros + next pointer) so the freed page keeps
  // a valid checksum; WritePage journals the pre-image.
  std::vector<char> page(page_size_, 0);
  EncodeFixed64LE(page.data(), freelist_head_);
  VIST_RETURN_IF_ERROR(WritePageLocked(id, page.data()));
  freelist_head_ = id;
  header_dirty_ = true;
  return Status::OK();
}

PageId Pager::GetMetaSlot(int slot) const {
  VIST_CHECK(slot >= 0 && slot < kNumMetaSlots);
  MutexLock lock(mu_);
  return meta_slots_[slot];
}

Status Pager::SetMetaSlot(int slot, PageId id) {
  VIST_CHECK(slot >= 0 && slot < kNumMetaSlots);
  MutexLock lock(mu_);
  // Starting the batch snapshots the *old* meta values first; if that
  // fails the mutation must not happen, or a later successful batch would
  // snapshot (and "roll back" to) the already-mutated slot.
  VIST_RETURN_IF_ERROR(EnsureBatch());
  meta_slots_[slot] = id;
  header_dirty_ = true;
  return Status::OK();
}

Status Pager::Sync() {
  MutexLock lock(mu_);
  PagerMetrics::Get().syncs.Increment();
  if (header_dirty_) {
    // The header is a committed page: under kPowerLoss its pre-image (in
    // the journal header) must be durable before the overwrite.
    if (in_batch_) VIST_RETURN_IF_ERROR(SyncJournalForOverwrite(0));
    VIST_RETURN_IF_ERROR(WriteHeader());
  }
  VIST_RETURN_IF_ERROR(file_->Sync());
  if (in_batch_) {
    journal_.reset();
    VIST_RETURN_IF_ERROR(env_->DeleteFile(JournalPath(path_)));
    if (durability_ == DurabilityLevel::kPowerLoss) {
      // Make the unlink durable: a resurrected journal would roll back a
      // committed batch.
      VIST_RETURN_IF_ERROR(env_->SyncDir(dir_));
    }
    journaled_.clear();
    in_batch_ = false;
    journal_dirty_ = false;
  }
  return Status::OK();
}

void Pager::SimulateCrashForTesting() {
  MutexLock lock(mu_);
  crashed_ = true;
  file_.reset();
  journal_.reset();
  // The journal file stays on disk: reopening the path must roll back.
}

}  // namespace vist
