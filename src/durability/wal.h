#ifndef TUFFY_DURABILITY_WAL_H_
#define TUFFY_DURABILITY_WAL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace tuffy {

// ------------------------------------------------------------ framing

/// The one [u32 crc over payload][u32 payload length][payload bytes]
/// frame, shared by WAL records on disk and messages on the wire
/// (net/protocol.h). crc and length are little-endian.
constexpr size_t kFrameHeaderBytes = 8;

/// Frames larger than this are treated as corruption when the log is
/// read: no legitimate delta batch serializes to gigabytes, and a
/// garbage length prefix must not drive a gigabyte allocation.
constexpr uint32_t kMaxRecordBytes = 1u << 30;

/// Wraps `payload` in the [crc][len][payload] frame.
std::string EncodeFrame(const std::string& payload);

enum class FrameDecode {
  kFrame,     // *payload filled, *consumed bytes eaten
  kNeedMore,  // prefix of a valid frame; read more bytes
  kBadCrc,    // checksum mismatch: close the connection
  kTooLarge,  // announced length exceeds max_payload: close
};

/// Decodes the frame at the start of a buffer. On kFrame, `payload`
/// holds the verified payload and `consumed` the frame's total size; the
/// caller erases the consumed prefix and calls again (a buffer may hold
/// several frames). The length is checked against `max_payload` before
/// it sizes anything.
FrameDecode TryDecodeFrame(const char* data, size_t size, size_t max_payload,
                           std::string* payload, size_t* consumed);

// ---------------------------------------------------------- file bytes

/// Writes all `n` bytes to `fd`, retrying short writes and EINTR. `what`
/// names the file kind in the error ("wal", "snapshot").
Status WriteFully(int fd, const char* data, size_t n, const char* what);

/// Reads the whole file at `path`. NotFound if it does not exist; `what`
/// names the file kind in the errors.
Result<std::string> ReadWholeFile(const std::string& path, const char* what);

// ----------------------------------------------------------------- log

/// Append-only write-ahead log of length-prefixed, CRC32-checksummed
/// records (the NuDB idiom: append atomically, never rewrite, rebuild
/// everything else from the log). Frame layout per record:
///
///   [u32 crc over payload][u32 payload length][payload bytes]
///
/// The payload grammar is the caller's (the serving layer logs one
/// record per evidence-delta batch; see docs/DURABILITY.md). A torn or
/// corrupt frame ends the readable log: ScanWal stops at the first bad
/// frame and reports the tail so recovery can truncate it.
class WalWriter {
 public:
  /// Creates (truncating) a fresh log at `path`.
  static Result<std::unique_ptr<WalWriter>> Create(const std::string& path);

  /// Opens an existing log for appending at `offset` — recovery's
  /// continuation point, after the torn tail (if any) was truncated.
  static Result<std::unique_ptr<WalWriter>> OpenAt(const std::string& path,
                                                   uint64_t offset);

  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Appends one framed record. Not durable until Sync(). Instrumented
  /// with the wal.append.* fault points; an injected fault may leave a
  /// torn frame on disk, exactly like a crash mid-write.
  Status Append(const std::string& payload);

  /// fsync barrier: every appended record is durable when this returns
  /// OK. The serving layer calls it once per evidence-delta batch (group
  /// commit), not per record.
  Status Sync();

  uint64_t bytes_written() const { return offset_; }
  uint64_t records_appended() const { return records_; }

 private:
  WalWriter(int fd, uint64_t offset) : fd_(fd), offset_(offset) {}

  int fd_;
  uint64_t offset_;
  uint64_t records_ = 0;
};

/// Result of scanning a WAL from the start: every intact record payload
/// in order, the byte length of the valid prefix, and how many trailing
/// bytes belong to the torn/corrupt tail (0 for a clean log).
struct WalScan {
  std::vector<std::string> payloads;
  uint64_t valid_bytes = 0;
  uint64_t truncated_bytes = 0;
};

/// Reads and validates `path` frame by frame. NotFound if the file does
/// not exist; a bad frame is not an error (it terminates the scan and
/// shows up in truncated_bytes).
Result<WalScan> ScanWal(const std::string& path);

/// Truncates `path` to `size` bytes — recovery's torn-tail removal.
Status TruncateFile(const std::string& path, uint64_t size);

}  // namespace tuffy

#endif  // TUFFY_DURABILITY_WAL_H_
