#ifndef TUFFY_STORAGE_BUFFER_POOL_H_
#define TUFFY_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "storage/disk_manager.h"
#include "storage/page.h"
#include "util/result.h"
#include "util/status.h"

namespace tuffy {

/// Counters exposed for the experiments: the Tuffy-mm benchmarks report
/// hit rates to explain the flipping-rate gap of Table 3.
struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
};

/// A fixed-capacity LRU buffer pool over a DiskManager, in the style of a
/// textbook RDBMS buffer manager. Pinned pages are never evicted.
class BufferPool {
 public:
  BufferPool(size_t num_frames, DiskManager* disk);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Returns the page pinned; caller must Unpin exactly once.
  Result<Page*> FetchPage(PageId page_id);

  /// Allocates a fresh page, pinned and zero-filled.
  Result<Page*> NewPage();

  /// Releases one pin; `dirty` marks the page as modified.
  Status UnpinPage(PageId page_id, bool dirty);

  /// Writes all dirty pages back to disk.
  Status FlushAll();

  const BufferPoolStats& stats() const { return stats_; }
  size_t num_frames() const { return frames_.size(); }
  DiskManager* disk() { return disk_; }

 private:
  /// Finds a frame to (re)use, evicting the LRU unpinned page if needed.
  Result<size_t> GetVictimFrame();
  void TouchLru(size_t frame_idx);

  DiskManager* disk_;
  std::vector<std::unique_ptr<Page>> frames_;
  std::unordered_map<PageId, size_t> page_table_;
  /// Frames not holding any page.
  std::vector<size_t> free_frames_;
  /// LRU order of resident frames; front = least recently used.
  std::list<size_t> lru_;
  std::unordered_map<size_t, std::list<size_t>::iterator> lru_pos_;
  BufferPoolStats stats_;
  std::mutex mu_;
};

}  // namespace tuffy

#endif  // TUFFY_STORAGE_BUFFER_POOL_H_
