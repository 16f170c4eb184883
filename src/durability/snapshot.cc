#include "durability/snapshot.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "durability/wal.h"
#include "util/crc32.h"
#include "util/fault_points.h"
#include "util/string_util.h"

namespace tuffy {

namespace {

constexpr char kSnapshotMagic[8] = {'T', 'F', 'Y', 'S', 'N', 'A', 'P', '1'};
constexpr size_t kEnvelopeBytes = 8 + 4 + 8;  // magic + crc + payload length
constexpr const char* kSnapshotSuffix = ".snap";

uint64_t FnvMix(uint64_t h, const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t FnvMixU64(uint64_t h, uint64_t v) { return FnvMix(h, &v, sizeof(v)); }

uint64_t FnvMixStr(uint64_t h, const std::string& s) {
  h = FnvMixU64(h, s.size());
  return FnvMix(h, s.data(), s.size());
}

}  // namespace

Status SyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::IOError(StrFormat("cannot open dir %s for fsync: %s",
                                     dir.c_str(), std::strerror(errno)));
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return Status::IOError(StrFormat("fsync of dir %s failed: %s",
                                     dir.c_str(), std::strerror(errno)));
  }
  return Status::OK();
}

Status EnsureDir(const std::string& dir) {
  // Create parents left to right, mkdir -p style; an existing directory
  // at any level is fine.
  for (size_t i = 1; i <= dir.size(); ++i) {
    if (i != dir.size() && dir[i] != '/') continue;
    const std::string prefix = dir.substr(0, i);
    if (prefix.empty()) continue;
    if (::mkdir(prefix.c_str(), 0755) == 0 || errno == EEXIST) continue;
    return Status::IOError(StrFormat("cannot create dir %s: %s",
                                     prefix.c_str(), std::strerror(errno)));
  }
  struct stat st;
  if (::stat(dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    return Status::IOError(StrFormat("%s is not a directory", dir.c_str()));
  }
  return Status::OK();
}

std::string SnapshotFileName(uint64_t seq) {
  return StrFormat("snapshot-%010" PRIu64 "%s", seq, kSnapshotSuffix);
}

Status WriteSnapshotFile(const std::string& dir, uint64_t seq,
                         const std::string& payload) {
  const std::string final_path = dir + "/" + SnapshotFileName(seq);
  const std::string tmp_path = final_path + ".tmp";

  std::string envelope;
  envelope.reserve(kEnvelopeBytes + payload.size());
  envelope.append(kSnapshotMagic, sizeof(kSnapshotMagic));
  const uint32_t crc = Crc32(payload.data(), payload.size());
  const uint64_t len = payload.size();
  envelope.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  envelope.append(reinterpret_cast<const char*>(&len), sizeof(len));
  envelope.append(payload);

  int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IOError(StrFormat("cannot create %s: %s", tmp_path.c_str(),
                                     std::strerror(errno)));
  }
  // Two slices with a fault point in between: an armed snapshot.write.mid
  // (or a crash there) leaves a half-written temp file — which recovery
  // must ignore outright, since only the rename publishes a snapshot.
  const size_t half = envelope.size() / 2;
  Status st = WriteFully(fd, envelope.data(), half, "snapshot");
  if (st.ok() &&
      FaultPoints::Global().Hit("snapshot.write.mid") != FaultAction::kNone) {
    st = Status::IOError("injected fault mid-snapshot-write");
  }
  if (st.ok()) {
    st = WriteFully(fd, envelope.data() + half, envelope.size() - half,
                    "snapshot");
  }
  if (st.ok() && ::fsync(fd) != 0) {
    st = Status::IOError(StrFormat("fsync of %s failed: %s", tmp_path.c_str(),
                                   std::strerror(errno)));
  }
  ::close(fd);
  if (!st.ok()) return st;

  if (FaultPoints::Global().Hit("snapshot.rename.before") !=
      FaultAction::kNone) {
    return Status::IOError("injected fault before snapshot rename");
  }
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    return Status::IOError(StrFormat("cannot rename %s -> %s: %s",
                                     tmp_path.c_str(), final_path.c_str(),
                                     std::strerror(errno)));
  }
  return SyncDir(dir);
}

Result<std::vector<SnapshotRef>> ListSnapshots(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return Status::IOError(StrFormat("cannot list %s: %s", dir.c_str(),
                                     std::strerror(errno)));
  }
  std::vector<SnapshotRef> out;
  while (struct dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    uint64_t seq = 0;
    if (std::sscanf(name.c_str(), "snapshot-%" SCNu64 ".snap", &seq) != 1) {
      continue;
    }
    if (name != SnapshotFileName(seq)) continue;  // skip *.snap.tmp etc.
    out.push_back(SnapshotRef{seq, dir + "/" + name});
  }
  ::closedir(d);
  std::sort(out.begin(), out.end(),
            [](const SnapshotRef& a, const SnapshotRef& b) {
              return a.seq > b.seq;
            });
  return out;
}

Result<std::string> ReadSnapshotFile(const std::string& path) {
  TUFFY_ASSIGN_OR_RETURN(std::string bytes, ReadWholeFile(path, "snapshot"));

  if (bytes.size() < kEnvelopeBytes ||
      std::memcmp(bytes.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    return Status::Corruption("bad snapshot magic in " + path);
  }
  uint32_t crc;
  uint64_t len;
  std::memcpy(&crc, bytes.data() + 8, sizeof(crc));
  std::memcpy(&len, bytes.data() + 12, sizeof(len));
  if (bytes.size() - kEnvelopeBytes != len) {
    return Status::Corruption(
        StrFormat("snapshot %s length mismatch: header says %" PRIu64
                  ", file has %zu payload bytes",
                  path.c_str(), len, bytes.size() - kEnvelopeBytes));
  }
  if (Crc32(bytes.data() + kEnvelopeBytes, len) != crc) {
    return Status::Corruption("snapshot checksum mismatch in " + path);
  }
  return bytes.substr(kEnvelopeBytes);
}

Status RemoveSnapshotsAbove(const std::string& dir, uint64_t seq) {
  TUFFY_ASSIGN_OR_RETURN(std::vector<SnapshotRef> snaps, ListSnapshots(dir));
  bool removed = false;
  for (const SnapshotRef& ref : snaps) {  // newest first
    if (ref.seq <= seq) break;
    if (::unlink(ref.path.c_str()) != 0) {
      return Status::IOError(StrFormat("cannot remove stale snapshot %s: %s",
                                       ref.path.c_str(),
                                       std::strerror(errno)));
    }
    removed = true;
  }
  return removed ? SyncDir(dir) : Status::OK();
}

uint64_t ProgramFingerprint(const MlnProgram& program) {
  uint64_t h = 14695981039346656037ull;  // FNV-1a offset basis
  h = FnvMixU64(h, program.num_predicates());
  for (const Predicate& p : program.predicates()) {
    h = FnvMixStr(h, p.name);
    h = FnvMixU64(h, p.arg_types.size());
    for (const std::string& t : p.arg_types) h = FnvMixStr(h, t);
    h = FnvMixU64(h, p.closed_world ? 1 : 0);
  }
  h = FnvMixU64(h, program.clauses().size());
  for (const Clause& c : program.clauses()) {
    uint64_t wbits;
    std::memcpy(&wbits, &c.weight, sizeof(wbits));
    h = FnvMixU64(h, wbits);
    h = FnvMixU64(h, c.hard ? 1 : 0);
    h = FnvMixU64(h, c.num_vars);
    h = FnvMixU64(h, c.literals.size());
    for (const Literal& lit : c.literals) {
      h = FnvMixU64(h, static_cast<uint64_t>(lit.pred));
      h = FnvMixU64(h, lit.positive ? 1 : 0);
      h = FnvMixU64(h, lit.args.size());
      for (const Term& t : lit.args) {
        h = FnvMixU64(h, t.is_var ? 1 : 0);
        h = FnvMixU64(h, static_cast<uint64_t>(t.id));
      }
    }
    h = FnvMixU64(h, c.equalities.size());
    for (const EqualityConstraint& eq : c.equalities) {
      h = FnvMixU64(h, eq.lhs.is_var ? 1 : 0);
      h = FnvMixU64(h, static_cast<uint64_t>(eq.lhs.id));
      h = FnvMixU64(h, eq.rhs.is_var ? 1 : 0);
      h = FnvMixU64(h, static_cast<uint64_t>(eq.rhs.id));
      h = FnvMixU64(h, eq.equal ? 1 : 0);
    }
    h = FnvMixU64(h, c.existential_vars.size());
    for (VarId v : c.existential_vars) h = FnvMixU64(h, static_cast<uint64_t>(v));
  }
  // Interned symbols pin the ConstantId <-> name mapping that all durable
  // atom args rely on; per-predicate-arg domains pin binding enumeration.
  const SymbolTable& sym = program.symbols();
  h = FnvMixU64(h, sym.num_constants());
  for (size_t i = 0; i < sym.num_constants(); ++i) {
    h = FnvMixStr(h, sym.SymbolName(static_cast<ConstantId>(i)));
  }
  for (const Predicate& p : program.predicates()) {
    for (const std::string& t : p.arg_types) {
      const std::vector<ConstantId>& dom = sym.Domain(t);
      h = FnvMixU64(h, dom.size());
      for (ConstantId c : dom) h = FnvMixU64(h, static_cast<uint64_t>(c));
    }
  }
  return h;
}

}  // namespace tuffy
