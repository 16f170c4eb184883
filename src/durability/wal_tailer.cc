#include "durability/wal_tailer.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "durability/wal.h"
#include "util/crc32.h"
#include "util/string_util.h"

namespace tuffy {

namespace {

/// pread exactly n bytes at off; short reads mean the file ends there.
Result<size_t> PreadFully(int fd, char* buf, size_t n, uint64_t off) {
  size_t done = 0;
  while (done < n) {
    ssize_t r = ::pread(fd, buf + done, n - done,
                        static_cast<off_t>(off + done));
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(StrFormat("wal tail read failed: %s",
                                       std::strerror(errno)));
    }
    if (r == 0) break;  // end of file
    done += static_cast<size_t>(r);
  }
  return done;
}

}  // namespace

Result<std::unique_ptr<WalTailer>> WalTailer::Open(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound("no wal at " + path);
    }
    return Status::IOError(StrFormat("cannot open wal %s: %s", path.c_str(),
                                     std::strerror(errno)));
  }
  return std::unique_ptr<WalTailer>(new WalTailer(fd, path));
}

WalTailer::~WalTailer() {
  if (fd_ >= 0) ::close(fd_);
}

Result<bool> WalTailer::ReadOne(std::string* payload) {
  char header[kFrameHeaderBytes];
  auto got = PreadFully(fd_, header, sizeof header, offset_);
  if (!got.ok()) return got.status();
  if (got.value() < sizeof header) return false;  // frame still arriving
  uint32_t crc, len;
  std::memcpy(&crc, header, 4);
  std::memcpy(&len, header + 4, 4);
  if (len > kMaxRecordBytes) {
    return Status::Corruption(
        StrFormat("wal %s: frame at %llu claims %u bytes", path_.c_str(),
                  (unsigned long long)offset_, len));
  }
  std::string body(len, '\0');
  got = PreadFully(fd_, body.data(), len, offset_ + sizeof header);
  if (!got.ok()) return got.status();
  if (got.value() < len) return false;  // payload still arriving
  if (Crc32(body.data(), body.size()) != crc) {
    return Status::Corruption(
        StrFormat("wal %s: crc mismatch in settled frame at %llu",
                  path_.c_str(), (unsigned long long)offset_));
  }
  offset_ += sizeof header + len;
  ++records_;
  if (payload != nullptr) *payload = std::move(body);
  return true;
}

Result<uint64_t> WalTailer::ReadRecords(uint64_t max_records,
                                        std::vector<std::string>* out) {
  uint64_t n = 0;
  while (n < max_records) {
    std::string payload;
    auto one = ReadOne(&payload);
    if (!one.ok()) return one.status();
    if (!one.value()) break;
    out->push_back(std::move(payload));
    ++n;
  }
  return n;
}

Result<uint64_t> WalTailer::SkipRecords(uint64_t max_records) {
  uint64_t n = 0;
  while (n < max_records) {
    auto one = ReadOne(nullptr);
    if (!one.ok()) return one.status();
    if (!one.value()) break;
    ++n;
  }
  return n;
}

}  // namespace tuffy
