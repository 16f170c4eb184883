#include "storage/buffer_pool.h"

#include "obs/metrics.h"
#include "util/string_util.h"

namespace tuffy {

namespace {
// Registry mirrors of BufferPoolStats, aggregated across all pools in
// the process. The per-pool struct stays authoritative for the benches;
// the registry gives the serving scrape one global view.
Counter* PoolHits() {
  static Counter* c =
      MetricsRegistry::Global().GetCounter("storage.bufferpool.hits");
  return c;
}
Counter* PoolMisses() {
  static Counter* c =
      MetricsRegistry::Global().GetCounter("storage.bufferpool.misses");
  return c;
}
Counter* PoolEvictions() {
  static Counter* c =
      MetricsRegistry::Global().GetCounter("storage.bufferpool.evictions");
  return c;
}
}  // namespace

BufferPool::BufferPool(size_t num_frames, DiskManager* disk) : disk_(disk) {
  frames_.reserve(num_frames);
  for (size_t i = 0; i < num_frames; ++i) {
    frames_.push_back(std::make_unique<Page>());
    free_frames_.push_back(num_frames - 1 - i);
  }
}

void BufferPool::TouchLru(size_t frame_idx) {
  auto it = lru_pos_.find(frame_idx);
  if (it != lru_pos_.end()) lru_.erase(it->second);
  lru_.push_back(frame_idx);
  lru_pos_[frame_idx] = std::prev(lru_.end());
}

Result<size_t> BufferPool::GetVictimFrame() {
  if (!free_frames_.empty()) {
    size_t idx = free_frames_.back();
    free_frames_.pop_back();
    return idx;
  }
  // Evict the least recently used unpinned page.
  for (auto it = lru_.begin(); it != lru_.end(); ++it) {
    size_t idx = *it;
    Page* page = frames_[idx].get();
    if (page->pin_count() > 0) continue;
    if (page->dirty()) {
      TUFFY_RETURN_IF_ERROR(disk_->WritePage(page->page_id(), page->data()));
    }
    page_table_.erase(page->page_id());
    lru_pos_.erase(idx);
    lru_.erase(it);
    ++stats_.evictions;
    PoolEvictions()->Add(1);
    page->Reset();
    return idx;
  }
  return Status::ResourceExhausted(
      StrFormat("all %zu buffer frames are pinned", frames_.size()));
}

Result<Page*> BufferPool::FetchPage(PageId page_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = page_table_.find(page_id);
  if (it != page_table_.end()) {
    ++stats_.hits;
    PoolHits()->Add(1);
    Page* page = frames_[it->second].get();
    page->Pin();
    TouchLru(it->second);
    return page;
  }
  ++stats_.misses;
  PoolMisses()->Add(1);
  TUFFY_ASSIGN_OR_RETURN(size_t idx, GetVictimFrame());
  Page* page = frames_[idx].get();
  Status read = disk_->ReadPage(page_id, page->data());
  if (!read.ok()) {
    // A failed read (I/O error, checksum mismatch) must hand the victim
    // frame back, or every failed fetch would shrink the pool by one
    // frame forever.
    page->Reset();
    free_frames_.push_back(idx);
    return read;
  }
  page->set_page_id(page_id);
  page->set_dirty(false);
  page->Pin();
  page_table_[page_id] = idx;
  TouchLru(idx);
  return page;
}

Result<Page*> BufferPool::NewPage() {
  std::lock_guard<std::mutex> lock(mu_);
  TUFFY_ASSIGN_OR_RETURN(size_t idx, GetVictimFrame());
  PageId page_id = disk_->AllocatePage();
  Page* page = frames_[idx].get();
  page->set_page_id(page_id);
  page->set_dirty(true);  // ensure a first write-back materializes the page
  page->Pin();
  page_table_[page_id] = idx;
  TouchLru(idx);
  return page;
}

Status BufferPool::UnpinPage(PageId page_id, bool dirty) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = page_table_.find(page_id);
  if (it == page_table_.end()) {
    return Status::NotFound(StrFormat("page %u is not resident", page_id));
  }
  Page* page = frames_[it->second].get();
  if (page->pin_count() <= 0) {
    return Status::Internal(StrFormat("page %u is not pinned", page_id));
  }
  page->Unpin();
  if (dirty) page->set_dirty(true);
  return Status::OK();
}

Status BufferPool::FlushAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [page_id, idx] : page_table_) {
    Page* page = frames_[idx].get();
    if (page->dirty()) {
      TUFFY_RETURN_IF_ERROR(disk_->WritePage(page_id, page->data()));
      page->set_dirty(false);
    }
  }
  return Status::OK();
}

}  // namespace tuffy
