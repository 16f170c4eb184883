#ifndef TUFFY_STORAGE_HEAP_FILE_H_
#define TUFFY_STORAGE_HEAP_FILE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "storage/buffer_pool.h"
#include "util/result.h"
#include "util/status.h"

namespace tuffy {

/// Identifies a record inside a HeapFile: page + slot within the page.
struct RecordId {
  PageId page_id = kInvalidPageId;
  uint16_t slot = 0;

  bool operator==(const RecordId& other) const {
    return page_id == other.page_id && slot == other.slot;
  }
};

/// A file of fixed-size records stored in buffer-pool pages, in the style
/// of a heap relation. Backs the on-disk ground-clause table ("C" in the
/// paper, Section 3.1) and the RDBMS-resident WalkSAT state (Tuffy-mm,
/// Appendix B.2).
///
/// Page layout: [uint16 record_count][records...].
class HeapFile {
 public:
  /// `record_size` must fit in a page alongside the 2-byte header.
  HeapFile(BufferPool* pool, uint32_t record_size);

  /// Appends a record of record_size() bytes; returns its id.
  Result<RecordId> Append(const char* record);

  /// Reads the record into `out` (record_size() bytes).
  Status Read(RecordId rid, char* out) const;

  /// Overwrites an existing record.
  Status Update(RecordId rid, const char* record);

  /// Reads the i-th record in append order.
  Status ReadNth(uint64_t index, char* out) const;
  Result<RecordId> NthRecordId(uint64_t index) const;

  uint64_t num_records() const { return num_records_; }
  uint32_t record_size() const { return record_size_; }
  uint32_t records_per_page() const { return records_per_page_; }
  size_t num_pages() const { return pages_.size(); }

  /// Invokes fn(rid, bytes) for every record, in append order. Stops and
  /// returns the first non-OK status from fn.
  Status Scan(
      const std::function<Status(RecordId, const char*)>& fn) const;

 private:
  BufferPool* pool_;
  uint32_t record_size_;
  uint32_t records_per_page_;
  std::vector<PageId> pages_;
  uint64_t num_records_ = 0;
};

}  // namespace tuffy

#endif  // TUFFY_STORAGE_HEAP_FILE_H_
