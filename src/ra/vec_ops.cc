#include "ra/vec_ops.h"

#include <algorithm>

#include "util/rng.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace tuffy {

namespace {

/// Accumulates inclusive wall time into `*acc` on scope exit.
class ScopedSeconds {
 public:
  explicit ScopedSeconds(double* acc) : acc_(acc) {}
  ~ScopedSeconds() { *acc_ += timer_.ElapsedSeconds(); }

 private:
  Timer timer_;
  double* acc_;
};

uint64_t HashKey(uint64_t key) { return SplitMix64(key); }

size_t NextPow2(size_t n) {
  size_t p = 16;
  while (p < n) p <<= 1;
  return p;
}

bool EvalPredicates(const std::vector<VecPredicate>& predicates,
                    const ColumnChunk& chunk, uint32_t row) {
  for (const VecPredicate& p : predicates) {
    if (p.kind == VecPredicate::Kind::kColEqConst) {
      if (chunk.col(p.col_a)[row] != p.value) return false;
    } else {
      if (chunk.col(p.col_a)[row] != chunk.col(p.col_b)[row]) return false;
    }
  }
  return true;
}

}  // namespace

// ----------------------------------------------------------------- VecOp

void VecOp::AddProbeCounters(const VecOp& copy) {
  rows_produced_ += copy.rows_produced_;
  chunks_produced_ += copy.chunks_produced_;
  seconds_ += copy.seconds_;
  if (VecOp* child = probe_child()) child->AddProbeCounters(*copy.probe_child());
}

// ---------------------------------------------------------------- VecScan

Status VecScanOp::Open() {
  segment_ = 0;
  pos_ = rows_.begin;
  while (segment_ < segments_.size() &&
         pos_ >= segments_[segment_]->num_rows()) {
    pos_ -= segments_[segment_]->num_rows();
    ++segment_;
  }
  left_ = rows_.end - rows_.begin;
  rows_produced_ = 0;
  chunks_produced_ = 0;
  return Status::OK();
}

Result<bool> VecScanOp::NextChunk(ColumnChunk* out) {
  ScopedSeconds t(&seconds_);
  while (segment_ < segments_.size() &&
         pos_ >= segments_[segment_]->num_rows()) {
    ++segment_;
    pos_ = 0;
  }
  if (segment_ >= segments_.size() || left_ == 0) return false;
  const IdTable& rows = *segments_[segment_];
  const size_t n =
      std::min({static_cast<size_t>(kVecChunkRows), rows.num_rows() - pos_,
                left_});
  out->Reset(num_cols_);
  // Borrow the segment's columns: a view per column, no copies.
  for (size_t c = 0; c < num_cols_; ++c) {
    out->SetView(c, rows.col(c).data() + pos_);
  }
  out->num_rows = static_cast<uint32_t>(n);
  pos_ += n;
  left_ -= n;
  rows_produced_ += n;
  ++chunks_produced_;
  return true;
}

VecOpPtr VecScanOp::CloneProbe(RowRange rows) const {
  auto copy = std::make_unique<VecScanOp>(*this);
  copy->rows_ = rows;
  copy->seconds_ = 0.0;
  return copy;
}

const std::vector<const IdTable*>& VecScanOp::DrainInPlace() {
  for (; segment_ < segments_.size(); ++segment_, pos_ = 0) {
    const size_t rows = segments_[segment_]->num_rows();
    if (pos_ >= rows) continue;
    rows_produced_ += rows - pos_;
    chunks_produced_ += (rows - pos_ + kVecChunkRows - 1) / kVecChunkRows;
  }
  return segments_;
}

// -------------------------------------------------------------- VecFilter

Status VecFilterOp::Open() {
  rows_produced_ = 0;
  chunks_produced_ = 0;
  ScopedSeconds t(&seconds_);
  return child_->Open();
}

Result<bool> VecFilterOp::NextChunk(ColumnChunk* out) {
  ScopedSeconds t(&seconds_);
  while (true) {
    TUFFY_ASSIGN_OR_RETURN(bool has, child_->NextChunk(&scratch_));
    if (!has) return false;
    sel_.clear();
    for (uint32_t r = 0; r < scratch_.num_rows; ++r) {
      if (EvalPredicates(predicates_, scratch_, r)) sel_.push_back(r);
    }
    if (sel_.empty()) continue;
    out->Reset(scratch_.num_cols());
    for (size_t c = 0; c < scratch_.num_cols(); ++c) {
      const int64_t* src = scratch_.col(c);
      out->cols[c].reserve(sel_.size());
      for (uint32_t r : sel_) out->cols[c].push_back(src[r]);
    }
    out->SealOwned();
    out->num_rows = static_cast<uint32_t>(sel_.size());
    rows_produced_ += out->num_rows;
    ++chunks_produced_;
    return true;
  }
}

double VecFilterOp::FanOut(Fan fan, const ColumnChunk* in,
                           uint32_t row) const {
  if (fan != Fan::kRow) return 1.0;
  return EvalPredicates(predicates_, *in, row) ? 1.0 : 0.0;
}

std::string VecFilterOp::name() const {
  return StrFormat("VecFilter(%zu preds)", predicates_.size());
}

// ------------------------------------------------------------- VecProject

Status VecProjectOp::Open() {
  rows_produced_ = 0;
  chunks_produced_ = 0;
  ScopedSeconds t(&seconds_);
  return child_->Open();
}

Result<bool> VecProjectOp::NextChunk(ColumnChunk* out) {
  ScopedSeconds t(&seconds_);
  TUFFY_ASSIGN_OR_RETURN(bool has, child_->NextChunk(&scratch_));
  if (!has) return false;
  out->Reset(columns_.size());
  // Forward the child's views — projection moves no data.
  for (size_t i = 0; i < columns_.size(); ++i) {
    out->SetView(i, scratch_.col(columns_[i]));
  }
  out->num_rows = scratch_.num_rows;
  rows_produced_ += out->num_rows;
  ++chunks_produced_;
  return true;
}

std::string VecProjectOp::name() const {
  return StrFormat("VecProject(%zu cols)", columns_.size());
}

// ------------------------------------------------------------ VecHashJoin

namespace {

/// Marks an unused slot of the hashed mode's slot table.
constexpr uint32_t kNoKey = UINT32_MAX;

}  // namespace

VecHashJoinOp::VecHashJoinOp(VecOpPtr left, VecOpPtr right,
                             std::vector<JoinKey> keys)
    : left_(std::move(left)),
      right_(std::move(right)),
      keys_(std::move(keys)),
      right_cols_(right_->num_output_cols()) {}

VecHashJoinOp::VecHashJoinOp(VecOpPtr left, std::shared_ptr<const Build> build,
                             std::vector<JoinKey> keys, size_t right_cols)
    : left_(std::move(left)),
      keys_(std::move(keys)),
      right_cols_(right_cols),
      build_(std::move(build)) {}

VecOpPtr VecHashJoinOp::CloneProbe(RowRange rows) const {
  return VecOpPtr(
      new VecHashJoinOp(left_->CloneProbe(rows), build_, keys_, right_cols_));
}

uint64_t VecHashJoinOp::BuildKey(const BuildSegment& seg, size_t row) const {
  if (keys_.size() == 1) {
    return static_cast<uint64_t>(seg.cols[keys_[0].right_col][row]);
  }
  return (static_cast<uint64_t>(
              static_cast<uint32_t>(seg.cols[keys_[0].right_col][row]))
          << 32) |
         static_cast<uint32_t>(seg.cols[keys_[1].right_col][row]);
}

uint64_t VecHashJoinOp::ProbeKey(const ColumnChunk& probe,
                                 uint32_t row) const {
  if (keys_.size() == 1) {
    return static_cast<uint64_t>(probe.col(keys_[0].left_col)[row]);
  }
  return (static_cast<uint64_t>(
              static_cast<uint32_t>(probe.col(keys_[0].left_col)[row]))
          << 32) |
         static_cast<uint32_t>(probe.col(keys_[1].left_col)[row]);
}

void VecHashJoinOp::FindRun(uint64_t key, uint32_t* pos, uint32_t* end) const {
  const Build& b = *build_;
  *pos = *end = 0;
  size_t k;
  if (b.addressing == Addressing::kDirect) {
    k = key - b.key_min;  // a key below the minimum wraps past the end
    if (k >= b.run_begin.size() - 1) return;
  } else {
    size_t slot = HashKey(key) & b.slot_mask;
    while (b.slot_index[slot] != kNoKey && b.slot_key[slot] != key) {
      slot = (slot + 1) & b.slot_mask;
    }
    if (b.slot_index[slot] == kNoKey) return;
    k = b.slot_index[slot];
  }
  *pos = b.run_begin[k];
  *end = b.run_begin[k + 1];
}

double VecHashJoinOp::FanOut(Fan fan, const ColumnChunk* in,
                             uint32_t row) const {
  const Build& b = *build_;
  if (b.rows == 0) return 0.0;
  if (fan == Fan::kRow) {
    uint32_t pos, end;
    FindRun(ProbeKey(*in, row), &pos, &end);
    return end - pos;
  }
  // A pass over the runs, here rather than in the build, which serving's
  // delta plans make per delta and never weigh.
  size_t keys = 0;
  uint32_t longest = 0;
  for (size_t k = 0; k + 1 < b.run_begin.size(); ++k) {
    const uint32_t n = b.run_begin[k + 1] - b.run_begin[k];
    keys += n != 0;
    longest = std::max(longest, n);
  }
  return fan == Fan::kMax ? longest
                          : static_cast<double>(b.rows) / static_cast<double>(keys);
}

Status VecHashJoinOp::LoadBuild(Build* b) {
  const size_t ncols = right_cols_;
  auto add_segment = [&](size_t rows, auto col_data) {
    BuildSegment seg;
    seg.begin = b->rows;
    seg.end = b->rows + rows;
    for (size_t c = 0; c < ncols; ++c) seg.cols.push_back(col_data(c));
    b->segments.push_back(std::move(seg));
    b->rows += rows;
  };
  if (auto* scan = dynamic_cast<VecScanOp*>(right_.get())) {
    // A bare scan: gather from its segments in place. An empty segment
    // may have no columns, and contributes no rows anyway.
    for (const IdTable* seg : scan->DrainInPlace()) {
      if (seg->num_rows() == 0) continue;
      add_segment(seg->num_rows(),
                  [&](size_t c) { return seg->col(c).data(); });
    }
  } else {
    b->owned_cols.assign(ncols, {});
    size_t rows = 0;
    ColumnChunk chunk;
    while (true) {
      TUFFY_ASSIGN_OR_RETURN(bool has, right_->NextChunk(&chunk));
      if (!has) break;
      for (size_t c = 0; c < ncols; ++c) {
        const int64_t* src = chunk.col(c);
        b->owned_cols[c].insert(b->owned_cols[c].end(), src,
                                src + chunk.num_rows);
      }
      rows += chunk.num_rows;
    }
    if (rows > 0) {
      add_segment(rows, [&](size_t c) { return b->owned_cols[c].data(); });
    }
  }
  if (b->rows >= kNoKey) {
    return Status::ResourceExhausted(
        StrFormat("hash-join build of %zu rows", b->rows));
  }
  return Status::OK();
}

void VecHashJoinOp::BuildRuns(Build* b) const {
  // Pass 1 gives each build row its key's index and counts the rows of
  // each index in run_begin; the prefix sum turns the counts into run
  // ends; pass 2 scatters the row ids in reverse, moving each end down
  // to its run's start, so every run's row ids ascend.
  const size_t cap = NextPow2(b->rows * 2);
  uint64_t lo = UINT64_MAX;
  uint64_t hi = 0;
  if (keys_.size() == 1) {
    for (const BuildSegment& seg : b->segments) {
      const int64_t* key = seg.cols[keys_[0].right_col];
      for (size_t r = 0; r < seg.end - seg.begin; ++r) {
        lo = std::min(lo, static_cast<uint64_t>(key[r]));
        hi = std::max(hi, static_cast<uint64_t>(key[r]));
      }
    }
  }
  std::vector<uint32_t> row_key;  // pass 1's index of each row, if hashed
  if (b->rows == 0 || (keys_.size() == 1 && hi - lo < cap)) {
    // Direct: a key's index is its distance from the smallest key.
    b->addressing = Addressing::kDirect;
    b->key_min = lo;
    b->run_begin.assign(b->rows == 0 ? 1 : hi - lo + 2, 0);
    for (const BuildSegment& seg : b->segments) {
      const int64_t* key = seg.cols[keys_[0].right_col];
      for (size_t r = 0; r < seg.end - seg.begin; ++r) {
        ++b->run_begin[static_cast<uint64_t>(key[r]) - lo];
      }
    }
  } else {
    // Hashed: a key's index is its first appearance's rank.
    b->addressing = Addressing::kHashed;
    b->slot_key.assign(cap, 0);
    b->slot_index.assign(cap, kNoKey);
    b->slot_mask = cap - 1;
    row_key.resize(b->rows);
    for (const BuildSegment& seg : b->segments) {
      for (size_t r = 0; r < seg.end - seg.begin; ++r) {
        const uint64_t key = BuildKey(seg, r);
        size_t slot = HashKey(key) & b->slot_mask;
        while (b->slot_index[slot] != kNoKey && b->slot_key[slot] != key) {
          slot = (slot + 1) & b->slot_mask;
        }
        if (b->slot_index[slot] == kNoKey) {
          b->slot_key[slot] = key;
          b->slot_index[slot] = static_cast<uint32_t>(b->run_begin.size());
          b->run_begin.push_back(0);
        }
        row_key[seg.begin + r] = b->slot_index[slot];
        ++b->run_begin[b->slot_index[slot]];
      }
    }
    b->run_begin.push_back(0);
  }
  for (size_t k = 1; k + 1 < b->run_begin.size(); ++k) {
    b->run_begin[k] += b->run_begin[k - 1];
  }
  b->run_begin.back() = static_cast<uint32_t>(b->rows);
  b->row_ids.resize(b->rows);
  const bool direct = b->addressing == Addressing::kDirect;
  for (size_t s = b->segments.size(); s-- > 0;) {
    const BuildSegment& seg = b->segments[s];
    const int64_t* key = seg.cols[keys_[0].right_col];
    for (size_t i = seg.end; i-- > seg.begin;) {
      const size_t k = direct
                           ? static_cast<uint64_t>(key[i - seg.begin]) - lo
                           : row_key[i];
      b->row_ids[--b->run_begin[k]] = static_cast<uint32_t>(i);
    }
  }
}

Status VecHashJoinOp::Open() {
  ScopedSeconds t(&seconds_);
  rows_produced_ = 0;
  chunks_produced_ = 0;
  TUFFY_RETURN_IF_ERROR(left_->Open());
  if (right_ != nullptr) {  // a CloneProbe copy shares its original's
    TUFFY_RETURN_IF_ERROR(right_->Open());
    auto build = std::make_shared<Build>();
    TUFFY_RETURN_IF_ERROR(LoadBuild(build.get()));
    BuildRuns(build.get());
    addressing_ = build->addressing;
    build_ = std::move(build);
  }
  probe_sel_.resize(kVecChunkRows);
  build_sel_.resize(kVecChunkRows);
  probe_valid_ = false;
  probe_row_ = 0;
  run_pos_ = run_end_ = 0;
  return Status::OK();
}

void VecHashJoinOp::GatherProbe(uint32_t from, uint32_t to,
                                ColumnChunk* out) const {
  if (from == to) return;  // probe_ may hold no chunk yet
  for (size_t c = 0; c < left_->num_output_cols(); ++c) {
    const int64_t* src = probe_.col(c);
    int64_t* dst = out->cols[c].data();
    for (uint32_t i = from; i < to; ++i) dst[i] = src[probe_sel_[i]];
  }
}

void VecHashJoinOp::GatherBuild(uint32_t n, ColumnChunk* out) const {
  const size_t first = left_->num_output_cols();
  const std::vector<BuildSegment>& segments = build_->segments;
  if (segments.size() == 1) {
    for (size_t c = 0; c < right_cols_; ++c) {
      const int64_t* src = segments[0].cols[c];
      int64_t* dst = out->cols[first + c].data();
      for (uint32_t i = 0; i < n; ++i) dst[i] = src[build_sel_[i]];
    }
    return;
  }
  // A scan of several segments, read in place: find each row's segment.
  for (uint32_t i = 0; i < n; ++i) {
    const size_t row = build_sel_[i];
    size_t s = 0;
    while (row >= segments[s].end) ++s;
    for (size_t c = 0; c < right_cols_; ++c) {
      out->cols[first + c][i] = segments[s].cols[c][row - segments[s].begin];
    }
  }
}

Result<bool> VecHashJoinOp::NextChunk(ColumnChunk* out) {
  ScopedSeconds t(&seconds_);
  out->Reset(num_output_cols());
  if (build_->rows == 0) return false;
  for (auto& col : out->cols) col.resize(kVecChunkRows);
  uint32_t n = 0;
  // Output rows [0, gathered) already hold their probe columns; the
  // rest refer to the current probe chunk, gathered before it is
  // replaced.
  uint32_t gathered = 0;
  while (n < kVecChunkRows) {
    if (run_pos_ == run_end_) {
      // Current probe row exhausted: advance, refilling the probe chunk
      // as needed.
      if (probe_valid_) ++probe_row_;
      if (!probe_valid_ || probe_row_ >= probe_.num_rows) {
        GatherProbe(gathered, n, out);
        gathered = n;
        TUFFY_ASSIGN_OR_RETURN(bool has, left_->NextChunk(&probe_));
        if (!has) {
          probe_valid_ = false;
          break;
        }
        probe_valid_ = true;
        probe_row_ = 0;
      }
      FindRun(ProbeKey(probe_, probe_row_), &run_pos_, &run_end_);
      continue;
    }
    const uint32_t take = std::min(kVecChunkRows - n, run_end_ - run_pos_);
    std::fill_n(probe_sel_.data() + n, take, probe_row_);
    std::copy_n(build_->row_ids.data() + run_pos_, take, build_sel_.data() + n);
    n += take;
    run_pos_ += take;
  }
  if (n == 0) return false;
  GatherProbe(gathered, n, out);
  GatherBuild(n, out);
  for (auto& col : out->cols) col.resize(n);
  out->SealOwned();
  out->num_rows = n;
  rows_produced_ += n;
  ++chunks_produced_;
  return true;
}

void VecHashJoinOp::Close() {
  left_->Close();
  if (right_ != nullptr) right_->Close();
  build_.reset();
}

std::string VecHashJoinOp::name() const {
  switch (addressing_) {
    case Addressing::kDirect:
      return StrFormat("VecHashJoin(keys=%zu, direct)", keys_.size());
    case Addressing::kHashed:
      return StrFormat("VecHashJoin(keys=%zu, hashed)", keys_.size());
    case Addressing::kNone:
      break;
  }
  return StrFormat("VecHashJoin(keys=%zu)", keys_.size());
}

// ----------------------------------------------------------- VecCrossJoin

Status VecCrossJoinOp::Open() {
  ScopedSeconds t(&seconds_);
  rows_produced_ = 0;
  chunks_produced_ = 0;
  TUFFY_RETURN_IF_ERROR(left_->Open());
  if (right_ != nullptr) {  // a CloneProbe copy shares its original's
    TUFFY_RETURN_IF_ERROR(right_->Open());
    auto build = std::make_shared<Build>();
    build->cols.assign(right_cols_, {});
    ColumnChunk chunk;
    while (true) {
      auto has = right_->NextChunk(&chunk);
      if (!has.ok()) return has.status();
      if (!has.value()) break;
      for (size_t c = 0; c < right_cols_; ++c) {
        const int64_t* src = chunk.col(c);
        build->cols[c].insert(build->cols[c].end(), src, src + chunk.num_rows);
      }
      build->rows += chunk.num_rows;
    }
    build_ = std::move(build);
  }
  probe_valid_ = false;
  probe_row_ = 0;
  right_pos_ = 0;
  return Status::OK();
}

VecOpPtr VecCrossJoinOp::CloneProbe(RowRange rows) const {
  return VecOpPtr(
      new VecCrossJoinOp(left_->CloneProbe(rows), build_, right_cols_));
}

Result<bool> VecCrossJoinOp::NextChunk(ColumnChunk* out) {
  ScopedSeconds t(&seconds_);
  const size_t ncols_left = left_->num_output_cols();
  const Build& right = *build_;
  out->Reset(num_output_cols());
  if (right.rows == 0) return false;
  for (auto& col : out->cols) col.reserve(kVecChunkRows);
  while (out->num_rows < kVecChunkRows) {
    if (!probe_valid_ || right_pos_ >= right.rows) {
      if (probe_valid_ && right_pos_ >= right.rows) {
        ++probe_row_;
        right_pos_ = 0;
      }
      if (!probe_valid_ || probe_row_ >= probe_.num_rows) {
        TUFFY_ASSIGN_OR_RETURN(bool has, left_->NextChunk(&probe_));
        if (!has) {
          probe_valid_ = false;
          break;
        }
        probe_valid_ = true;
        probe_row_ = 0;
        right_pos_ = 0;
      }
    }
    // Emit the current left row against a whole run of right rows:
    // a value splat per left column, a bulk copy per right column.
    const size_t run = std::min<size_t>(kVecChunkRows - out->num_rows,
                                        right.rows - right_pos_);
    for (size_t c = 0; c < ncols_left; ++c) {
      out->cols[c].insert(out->cols[c].end(), run,
                          probe_.col(c)[probe_row_]);
    }
    for (size_t c = 0; c < right_cols_; ++c) {
      out->cols[ncols_left + c].insert(
          out->cols[ncols_left + c].end(),
          right.cols[c].begin() + right_pos_,
          right.cols[c].begin() + right_pos_ + run);
    }
    out->num_rows += static_cast<uint32_t>(run);
    right_pos_ += run;
  }
  if (out->num_rows == 0) return false;
  out->SealOwned();
  rows_produced_ += out->num_rows;
  ++chunks_produced_;
  return true;
}

void VecCrossJoinOp::Close() {
  left_->Close();
  if (right_ != nullptr) right_->Close();
  build_.reset();
}

// ------------------------------------------------------------ VecAntiJoin

namespace {

/// Packs up to four narrow (31-bit) values into a 128-bit key as two
/// words. The layout is fixed per operator by the key-column count, so
/// distinct tuples never collide: one column uses the value verbatim
/// (64-bit safe), two or more pack each value into a 32-bit half.
inline void Pack128(const int64_t* v, size_t n, uint64_t* lo, uint64_t* hi) {
  switch (n) {
    case 1:
      *lo = static_cast<uint64_t>(v[0]);
      *hi = 0;
      break;
    case 2:
      *lo = (static_cast<uint64_t>(static_cast<uint32_t>(v[0])) << 32) |
            static_cast<uint32_t>(v[1]);
      *hi = 0;
      break;
    case 3:
      *lo = (static_cast<uint64_t>(static_cast<uint32_t>(v[0])) << 32) |
            static_cast<uint32_t>(v[1]);
      *hi = static_cast<uint32_t>(v[2]);
      break;
    default:
      *lo = (static_cast<uint64_t>(static_cast<uint32_t>(v[0])) << 32) |
            static_cast<uint32_t>(v[1]);
      *hi = (static_cast<uint64_t>(static_cast<uint32_t>(v[2])) << 32) |
            static_cast<uint32_t>(v[3]);
      break;
  }
}

}  // namespace

VecAntiJoinOp::VecAntiJoinOp(VecOpPtr child, AntiJoinRef ref)
    : child_(std::move(child)), ref_(std::move(ref)) {
  CompileAntiJoinKeys(ref_, &const_checks_, &dup_checks_, &key_build_cols_,
                      &key_probe_cols_);
  wide_ = key_build_cols_.size() > 2;
}

void VecAntiJoinOp::PackProbeKey(const ColumnChunk& chunk, uint32_t row,
                                 uint64_t* lo, uint64_t* hi) const {
  int64_t v[4] = {0, 0, 0, 0};
  for (size_t i = 0; i < key_probe_cols_.size(); ++i) {
    v[i] = chunk.col(key_probe_cols_[i])[row];
  }
  Pack128(v, key_probe_cols_.size(), lo, hi);
}

void VecAntiJoinOp::PackBuildKey(const IdTable& build, size_t row,
                                 uint64_t* lo, uint64_t* hi) const {
  int64_t v[4] = {0, 0, 0, 0};
  for (size_t i = 0; i < key_build_cols_.size(); ++i) {
    v[i] = build.col(key_build_cols_[i])[row];
  }
  Pack128(v, key_build_cols_.size(), lo, hi);
}

uint64_t VecAntiJoinOp::HashSlot(uint64_t lo, uint64_t hi) const {
  // The narrow (<= 2 column) path hashes the single word exactly as it
  // always did; the wide path folds the second word in first.
  return wide_ ? HashKey(lo ^ SplitMix64(hi)) : HashKey(lo);
}

bool VecAntiJoinOp::Contains(uint64_t lo, uint64_t hi) const {
  const KeySet& set = *set_;
  if (set.keys == 0) return false;
  size_t slot = HashSlot(lo, hi) & set.slot_mask;
  while (set.slot_used[slot] != 0) {
    if (set.slot_key[slot] == lo && (!wide_ || set.slot_key_hi[slot] == hi)) {
      return true;
    }
    slot = (slot + 1) & set.slot_mask;
  }
  return false;
}

VecOpPtr VecAntiJoinOp::CloneProbe(RowRange rows) const {
  auto copy = std::make_unique<VecAntiJoinOp>(child_->CloneProbe(rows), ref_);
  copy->set_ = set_;
  return copy;
}

Status VecAntiJoinOp::Open() {
  ScopedSeconds t(&seconds_);
  rows_produced_ = 0;
  chunks_produced_ = 0;
  if (set_ != nullptr) return child_->Open();  // shared with a copy's original

  auto set = std::make_shared<KeySet>();
  const IdTable& build = *ref_.build;
  const size_t cap = NextPow2(build.num_rows() * 2);
  set->slot_key.assign(cap, 0);
  if (wide_) set->slot_key_hi.assign(cap, 0);
  set->slot_used.assign(cap, 0);
  set->slot_mask = cap - 1;
  for (size_t r = 0; r < build.num_rows(); ++r) {
    if (!AntiJoinBuildRowQualifies(build, r, const_checks_, dup_checks_)) {
      continue;
    }
    if (key_build_cols_.empty()) {
      // Fully-ground literal already satisfied by evidence: every child
      // row is pruned.
      set->match_all = true;
      break;
    }
    uint64_t lo, hi;
    PackBuildKey(build, r, &lo, &hi);
    size_t slot = HashSlot(lo, hi) & set->slot_mask;
    while (set->slot_used[slot] != 0 &&
           !(set->slot_key[slot] == lo &&
             (!wide_ || set->slot_key_hi[slot] == hi))) {
      slot = (slot + 1) & set->slot_mask;
    }
    if (set->slot_used[slot] == 0) {
      set->slot_used[slot] = 1;
      set->slot_key[slot] = lo;
      if (wide_) set->slot_key_hi[slot] = hi;
      ++set->keys;
    }
  }
  set_ = std::move(set);
  return child_->Open();
}

Result<bool> VecAntiJoinOp::NextChunk(ColumnChunk* out) {
  ScopedSeconds t(&seconds_);
  while (true) {
    TUFFY_ASSIGN_OR_RETURN(bool has, child_->NextChunk(&scratch_));
    if (!has) return false;
    // match_all (fully-ground literal satisfied by evidence) drains the
    // child instead of short-circuiting: the pruned-row accounting reads
    // the child's row counter, and it must cover these rows too (and
    // the Volcano AntiJoinOp drains identically, keeping stats equal
    // across executors).
    if (set_->match_all) continue;
    if (set_->keys == 0) {
      // Nothing to prune: forward the child chunk's views unchanged.
      out->Reset(scratch_.num_cols());
      for (size_t c = 0; c < scratch_.num_cols(); ++c) {
        out->SetView(c, scratch_.col(c));
      }
      out->num_rows = scratch_.num_rows;
      rows_produced_ += out->num_rows;
      ++chunks_produced_;
      return true;
    }
    sel_.clear();
    for (uint32_t r = 0; r < scratch_.num_rows; ++r) {
      uint64_t lo, hi;
      PackProbeKey(scratch_, r, &lo, &hi);
      if (!Contains(lo, hi)) sel_.push_back(r);
    }
    if (sel_.empty()) continue;
    out->Reset(scratch_.num_cols());
    for (size_t c = 0; c < scratch_.num_cols(); ++c) {
      const int64_t* src = scratch_.col(c);
      out->cols[c].reserve(sel_.size());
      for (uint32_t r : sel_) out->cols[c].push_back(src[r]);
    }
    out->SealOwned();
    out->num_rows = static_cast<uint32_t>(sel_.size());
    rows_produced_ += out->num_rows;
    ++chunks_produced_;
    return true;
  }
}

void VecAntiJoinOp::Close() {
  child_->Close();
  set_.reset();
}

// --------------------------------------------------------------- Helpers

Status ForEachChunk(VecOp* root,
                    const std::function<Status(const ColumnChunk&)>& fn) {
  TUFFY_RETURN_IF_ERROR(root->Open());
  ColumnChunk chunk;
  while (true) {
    auto has = root->NextChunk(&chunk);
    if (!has.ok()) return has.status();
    if (!has.value()) break;
    TUFFY_RETURN_IF_ERROR(fn(chunk));
  }
  root->Close();
  return Status::OK();
}

std::vector<RowRange> SplitDrivingScan(const VecOp& root, double morsel_rows) {
  std::vector<const VecOp*> chain;  // root first, the driving scan last
  for (const VecOp* op = &root; op != nullptr; op = op->probe_child()) {
    chain.push_back(op);
  }
  const auto* scan = dynamic_cast<const VecScanOp*>(chain.back());
  // Operators up to the first one that changes the columns (the first
  // join) see the driving row itself, so their fan-out is exact; every
  // operator above contributes its mean.
  size_t exact = chain.size() - 1;
  while (exact > 0) {
    const VecOp* op = chain[--exact];
    if (op->num_output_cols() != op->probe_child()->num_output_cols()) break;
  }
  double mean = 1.0;
  for (size_t i = 0; i < exact; ++i) mean *= chain[i]->FanOut(VecOp::Fan::kMean);
  size_t scan_rows = 0;
  for (const IdTable* seg : scan->segments()) scan_rows += seg->num_rows();
  double bound = static_cast<double>(scan_rows);
  for (size_t i = 0; i + 1 < chain.size(); ++i) {
    bound *= chain[i]->FanOut(VecOp::Fan::kMax);
  }
  if (bound < morsel_rows) return {RowRange{0, scan_rows}};

  std::vector<RowRange> ranges;
  size_t row = 0;
  size_t begin = 0;
  double weight = 0.0;
  ColumnChunk chunk;
  for (const IdTable* seg : scan->segments()) {
    for (size_t pos = 0; pos < seg->num_rows(); pos += kVecChunkRows) {
      chunk.Reset(seg->num_cols());
      for (size_t c = 0; c < seg->num_cols(); ++c) {
        chunk.SetView(c, seg->col(c).data() + pos);
      }
      chunk.num_rows = static_cast<uint32_t>(
          std::min<size_t>(kVecChunkRows, seg->num_rows() - pos));
      for (uint32_t r = 0; r < chunk.num_rows; ++r, ++row) {
        double w = mean;
        for (size_t i = chain.size() - 1; i-- > exact;) {
          w *= chain[i]->FanOut(VecOp::Fan::kRow, &chunk, r);
        }
        weight += w;
        if (weight >= morsel_rows) {
          ranges.push_back(RowRange{begin, row + 1});
          begin = row + 1;
          weight = 0.0;
        }
      }
    }
  }
  if (begin < row || ranges.empty()) ranges.push_back(RowRange{begin, row});
  return ranges;
}

void AppendVecAnalyze(const VecOp* root, int depth, std::string* out) {
  *out += StrFormat("%*s%s: rows=%llu chunks=%llu time=%.3fms\n", depth * 2,
                    "", root->name().c_str(),
                    static_cast<unsigned long long>(root->rows_produced()),
                    static_cast<unsigned long long>(root->chunks_produced()),
                    root->seconds() * 1e3);
  root->ForEachChild(
      [&](const VecOp* child) { AppendVecAnalyze(child, depth + 1, out); });
}

}  // namespace tuffy
