#include "durability/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "obs/metrics.h"
#include "util/crc32.h"
#include "util/fault_points.h"
#include "util/string_util.h"

namespace tuffy {

std::string EncodeFrame(const std::string& payload) {
  const uint32_t crc = Crc32(payload.data(), payload.size());
  const uint32_t len = static_cast<uint32_t>(payload.size());
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  frame.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  frame.append(reinterpret_cast<const char*>(&len), sizeof(len));
  frame.append(payload);
  return frame;
}

FrameDecode TryDecodeFrame(const char* data, size_t size, size_t max_payload,
                           std::string* payload, size_t* consumed) {
  if (size < kFrameHeaderBytes) return FrameDecode::kNeedMore;
  uint32_t crc, len;
  std::memcpy(&crc, data, sizeof(crc));
  std::memcpy(&len, data + sizeof(crc), sizeof(len));
  // The length is checked before it sizes anything: a hostile or
  // desynchronized peer must not drive an allocation.
  if (len > max_payload) return FrameDecode::kTooLarge;
  if (size < kFrameHeaderBytes + len) return FrameDecode::kNeedMore;
  const char* body = data + kFrameHeaderBytes;
  if (Crc32(body, len) != crc) return FrameDecode::kBadCrc;
  payload->assign(body, len);
  *consumed = kFrameHeaderBytes + len;
  return FrameDecode::kFrame;
}

Status WriteFully(int fd, const char* data, size_t n, const char* what) {
  size_t done = 0;
  while (done < n) {
    ssize_t w = ::write(fd, data + done, n - done);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(
          StrFormat("%s write failed: %s", what, std::strerror(errno)));
    }
    done += static_cast<size_t>(w);
  }
  return Status::OK();
}

Result<std::string> ReadWholeFile(const std::string& path, const char* what) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound(StrFormat("no %s at %s", what, path.c_str()));
  }
  std::string bytes;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.append(buf, n);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return Status::IOError(StrFormat("error reading %s %s", what,
                                     path.c_str()));
  }
  return bytes;
}

Result<std::unique_ptr<WalWriter>> WalWriter::Create(const std::string& path) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IOError(StrFormat("cannot create wal %s: %s", path.c_str(),
                                     std::strerror(errno)));
  }
  return std::unique_ptr<WalWriter>(new WalWriter(fd, 0));
}

Result<std::unique_ptr<WalWriter>> WalWriter::OpenAt(const std::string& path,
                                                     uint64_t offset) {
  int fd = ::open(path.c_str(), O_WRONLY, 0644);
  if (fd < 0) {
    return Status::IOError(StrFormat("cannot open wal %s: %s", path.c_str(),
                                     std::strerror(errno)));
  }
  if (::lseek(fd, static_cast<off_t>(offset), SEEK_SET) < 0) {
    ::close(fd);
    return Status::IOError(StrFormat("cannot seek wal %s to %llu",
                                     path.c_str(),
                                     (unsigned long long)offset));
  }
  return std::unique_ptr<WalWriter>(new WalWriter(fd, offset));
}

WalWriter::~WalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

Status WalWriter::Append(const std::string& payload) {
  if (FaultPoints::Global().Hit("wal.append.before") != FaultAction::kNone) {
    return Status::IOError("injected wal fault before append");
  }
  const std::string frame = EncodeFrame(payload);

  // The frame goes out in three slices with a fault point between each,
  // so an armed fault (or an injected crash) leaves exactly the torn
  // prefix a real crash at that instant would: header + half the
  // payload for mid_record, everything but the final byte for
  // short_write. Unarmed, the extra write() calls are noise next to the
  // per-batch fsync.
  const size_t half = frame.size() / 2;
  TUFFY_RETURN_IF_ERROR(WriteFully(fd_, frame.data(), half, "wal"));
  if (FaultPoints::Global().Hit("wal.append.mid_record") !=
      FaultAction::kNone) {
    return Status::IOError("injected wal fault mid-record");
  }
  TUFFY_RETURN_IF_ERROR(WriteFully(fd_, frame.data() + half,
                                   frame.size() - half - 1, "wal"));
  if (FaultPoints::Global().Hit("wal.append.short_write") !=
      FaultAction::kNone) {
    return Status::IOError("injected wal short write");
  }
  TUFFY_RETURN_IF_ERROR(
      WriteFully(fd_, frame.data() + frame.size() - 1, 1, "wal"));
  offset_ += frame.size();
  ++records_;
  static Counter* appends =
      MetricsRegistry::Global().GetCounter("wal.append.count");
  static Counter* bytes =
      MetricsRegistry::Global().GetCounter("wal.append.bytes");
  appends->Add(1);
  bytes->Add(frame.size());
  return Status::OK();
}

Status WalWriter::Sync() {
  if (FaultPoints::Global().Hit("wal.sync.before") != FaultAction::kNone) {
    return Status::IOError("injected wal fault before fsync");
  }
  if (::fsync(fd_) != 0) {
    return Status::IOError(StrFormat("wal fsync failed: %s",
                                     std::strerror(errno)));
  }
  static Counter* fsyncs =
      MetricsRegistry::Global().GetCounter("wal.fsync.count");
  fsyncs->Add(1);
  return Status::OK();
}

Result<WalScan> ScanWal(const std::string& path) {
  TUFFY_ASSIGN_OR_RETURN(std::string bytes, ReadWholeFile(path, "wal"));
  WalScan scan;
  size_t pos = 0;
  std::string payload;
  size_t consumed = 0;
  while (TryDecodeFrame(bytes.data() + pos, bytes.size() - pos,
                        kMaxRecordBytes, &payload,
                        &consumed) == FrameDecode::kFrame) {
    scan.payloads.push_back(std::move(payload));
    pos += consumed;
  }
  scan.valid_bytes = pos;
  scan.truncated_bytes = bytes.size() - pos;
  return scan;
}

Status TruncateFile(const std::string& path, uint64_t size) {
  if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
    return Status::IOError(StrFormat("cannot truncate %s to %llu: %s",
                                     path.c_str(), (unsigned long long)size,
                                     std::strerror(errno)));
  }
  return Status::OK();
}

}  // namespace tuffy
