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

// ---------------------------------------------------------------- VecScan

Status VecScanOp::Open() {
  segment_ = 0;
  pos_ = 0;
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
  if (segment_ >= segments_.size()) return false;
  const IdTable& rows = *segments_[segment_];
  const size_t n = std::min<size_t>(kVecChunkRows, rows.num_rows() - pos_);
  out->Reset(num_cols_);
  // Borrow the segment's columns: a view per column, no copies.
  for (size_t c = 0; c < num_cols_; ++c) {
    out->SetView(c, rows.col(c).data() + pos_);
  }
  out->num_rows = static_cast<uint32_t>(n);
  pos_ += n;
  rows_produced_ += n;
  ++chunks_produced_;
  return true;
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
    : left_(std::move(left)), right_(std::move(right)), keys_(std::move(keys)) {
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

uint64_t VecHashJoinOp::ProbeKey(uint32_t row) const {
  if (keys_.size() == 1) {
    return static_cast<uint64_t>(probe_.col(keys_[0].left_col)[row]);
  }
  return (static_cast<uint64_t>(
              static_cast<uint32_t>(probe_.col(keys_[0].left_col)[row]))
          << 32) |
         static_cast<uint32_t>(probe_.col(keys_[1].left_col)[row]);
}

void VecHashJoinOp::FindRun(uint64_t key) {
  run_pos_ = run_end_ = 0;
  size_t k;
  if (addressing_ == Addressing::kDirect) {
    k = key - key_min_;  // a key below the minimum wraps past the end
    if (k >= run_begin_.size() - 1) return;
  } else {
    size_t slot = HashKey(key) & slot_mask_;
    while (slot_index_[slot] != kNoKey && slot_key_[slot] != key) {
      slot = (slot + 1) & slot_mask_;
    }
    if (slot_index_[slot] == kNoKey) return;
    k = slot_index_[slot];
  }
  run_pos_ = run_begin_[k];
  run_end_ = run_begin_[k + 1];
}

Status VecHashJoinOp::LoadBuild() {
  owned_cols_.clear();
  segments_.clear();
  build_rows_ = 0;
  const size_t ncols = right_->num_output_cols();
  auto add_segment = [&](size_t rows, auto col_data) {
    BuildSegment seg;
    seg.begin = build_rows_;
    seg.end = build_rows_ + rows;
    for (size_t c = 0; c < ncols; ++c) seg.cols.push_back(col_data(c));
    segments_.push_back(std::move(seg));
    build_rows_ += rows;
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
    owned_cols_.assign(ncols, {});
    size_t rows = 0;
    ColumnChunk chunk;
    while (true) {
      TUFFY_ASSIGN_OR_RETURN(bool has, right_->NextChunk(&chunk));
      if (!has) break;
      for (size_t c = 0; c < ncols; ++c) {
        const int64_t* src = chunk.col(c);
        owned_cols_[c].insert(owned_cols_[c].end(), src, src + chunk.num_rows);
      }
      rows += chunk.num_rows;
    }
    if (rows > 0) {
      add_segment(rows, [&](size_t c) { return owned_cols_[c].data(); });
    }
  }
  if (build_rows_ >= kNoKey) {
    return Status::ResourceExhausted(
        StrFormat("hash-join build of %zu rows", build_rows_));
  }
  return Status::OK();
}

void VecHashJoinOp::BuildRuns() {
  // Pass 1 gives each build row its key's index and counts the rows of
  // each index in run_begin_; the prefix sum turns the counts into run
  // ends; pass 2 scatters the row ids in reverse, moving each end down
  // to its run's start, so every run's row ids ascend.
  const size_t cap = NextPow2(build_rows_ * 2);
  uint64_t lo = UINT64_MAX;
  uint64_t hi = 0;
  if (keys_.size() == 1) {
    for (const BuildSegment& seg : segments_) {
      const int64_t* key = seg.cols[keys_[0].right_col];
      for (size_t r = 0; r < seg.end - seg.begin; ++r) {
        lo = std::min(lo, static_cast<uint64_t>(key[r]));
        hi = std::max(hi, static_cast<uint64_t>(key[r]));
      }
    }
  }
  std::vector<uint32_t> row_key;  // pass 1's index of each row, if hashed
  if (build_rows_ == 0 || (keys_.size() == 1 && hi - lo < cap)) {
    // Direct: a key's index is its distance from the smallest key.
    addressing_ = Addressing::kDirect;
    key_min_ = lo;
    run_begin_.assign(build_rows_ == 0 ? 1 : hi - lo + 2, 0);
    for (const BuildSegment& seg : segments_) {
      const int64_t* key = seg.cols[keys_[0].right_col];
      for (size_t r = 0; r < seg.end - seg.begin; ++r) {
        ++run_begin_[static_cast<uint64_t>(key[r]) - lo];
      }
    }
  } else {
    // Hashed: a key's index is its first appearance's rank.
    addressing_ = Addressing::kHashed;
    slot_key_.assign(cap, 0);
    slot_index_.assign(cap, kNoKey);
    slot_mask_ = cap - 1;
    run_begin_.clear();
    row_key.resize(build_rows_);
    for (const BuildSegment& seg : segments_) {
      for (size_t r = 0; r < seg.end - seg.begin; ++r) {
        const uint64_t key = BuildKey(seg, r);
        size_t slot = HashKey(key) & slot_mask_;
        while (slot_index_[slot] != kNoKey && slot_key_[slot] != key) {
          slot = (slot + 1) & slot_mask_;
        }
        if (slot_index_[slot] == kNoKey) {
          slot_key_[slot] = key;
          slot_index_[slot] = static_cast<uint32_t>(run_begin_.size());
          run_begin_.push_back(0);
        }
        row_key[seg.begin + r] = slot_index_[slot];
        ++run_begin_[slot_index_[slot]];
      }
    }
    run_begin_.push_back(0);
  }
  for (size_t k = 1; k + 1 < run_begin_.size(); ++k) {
    run_begin_[k] += run_begin_[k - 1];
  }
  run_begin_.back() = static_cast<uint32_t>(build_rows_);
  row_ids_.resize(build_rows_);
  const bool direct = addressing_ == Addressing::kDirect;
  for (size_t s = segments_.size(); s-- > 0;) {
    const BuildSegment& seg = segments_[s];
    const int64_t* key = seg.cols[keys_[0].right_col];
    for (size_t i = seg.end; i-- > seg.begin;) {
      const size_t k = direct
                           ? static_cast<uint64_t>(key[i - seg.begin]) - lo
                           : row_key[i];
      row_ids_[--run_begin_[k]] = static_cast<uint32_t>(i);
    }
  }
}

Status VecHashJoinOp::Open() {
  ScopedSeconds t(&seconds_);
  rows_produced_ = 0;
  chunks_produced_ = 0;
  TUFFY_RETURN_IF_ERROR(left_->Open());
  TUFFY_RETURN_IF_ERROR(right_->Open());
  TUFFY_RETURN_IF_ERROR(LoadBuild());
  BuildRuns();
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
  const size_t ncols = right_->num_output_cols();
  if (segments_.size() == 1) {
    for (size_t c = 0; c < ncols; ++c) {
      const int64_t* src = segments_[0].cols[c];
      int64_t* dst = out->cols[first + c].data();
      for (uint32_t i = 0; i < n; ++i) dst[i] = src[build_sel_[i]];
    }
    return;
  }
  // A scan of several segments, read in place: find each row's segment.
  for (uint32_t i = 0; i < n; ++i) {
    const size_t row = build_sel_[i];
    size_t s = 0;
    while (row >= segments_[s].end) ++s;
    for (size_t c = 0; c < ncols; ++c) {
      out->cols[first + c][i] = segments_[s].cols[c][row - segments_[s].begin];
    }
  }
}

Result<bool> VecHashJoinOp::NextChunk(ColumnChunk* out) {
  ScopedSeconds t(&seconds_);
  out->Reset(num_output_cols());
  if (build_rows_ == 0) return false;
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
      FindRun(ProbeKey(probe_row_));
      continue;
    }
    const uint32_t take = std::min(kVecChunkRows - n, run_end_ - run_pos_);
    std::fill_n(probe_sel_.data() + n, take, probe_row_);
    std::copy_n(row_ids_.data() + run_pos_, take, build_sel_.data() + n);
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
  right_->Close();
  owned_cols_ = {};
  segments_ = {};
  run_begin_ = {};
  row_ids_ = {};
  slot_key_ = {};
  slot_index_ = {};
  build_rows_ = 0;
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
  TUFFY_RETURN_IF_ERROR(right_->Open());
  right_cols_.assign(right_->num_output_cols(), {});
  right_rows_ = 0;
  ColumnChunk chunk;
  while (true) {
    auto has = right_->NextChunk(&chunk);
    if (!has.ok()) return has.status();
    if (!has.value()) break;
    for (size_t c = 0; c < right_cols_.size(); ++c) {
      const int64_t* src = chunk.col(c);
      right_cols_[c].insert(right_cols_[c].end(), src, src + chunk.num_rows);
    }
    right_rows_ += chunk.num_rows;
  }
  probe_valid_ = false;
  probe_row_ = 0;
  right_pos_ = 0;
  return Status::OK();
}

Result<bool> VecCrossJoinOp::NextChunk(ColumnChunk* out) {
  ScopedSeconds t(&seconds_);
  const size_t ncols_left = left_->num_output_cols();
  out->Reset(num_output_cols());
  if (right_rows_ == 0) return false;
  for (auto& col : out->cols) col.reserve(kVecChunkRows);
  while (out->num_rows < kVecChunkRows) {
    if (!probe_valid_ || right_pos_ >= right_rows_) {
      if (probe_valid_ && right_pos_ >= right_rows_) {
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
                                        right_rows_ - right_pos_);
    for (size_t c = 0; c < ncols_left; ++c) {
      out->cols[c].insert(out->cols[c].end(), run,
                          probe_.col(c)[probe_row_]);
    }
    for (size_t c = 0; c < right_cols_.size(); ++c) {
      out->cols[ncols_left + c].insert(
          out->cols[ncols_left + c].end(),
          right_cols_[c].begin() + right_pos_,
          right_cols_[c].begin() + right_pos_ + run);
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
  right_->Close();
  right_cols_.clear();
  right_rows_ = 0;
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
  if (build_keys_ == 0) return false;
  size_t slot = HashSlot(lo, hi) & slot_mask_;
  while (slot_used_[slot] != 0) {
    if (slot_key_[slot] == lo && (!wide_ || slot_key_hi_[slot] == hi)) {
      return true;
    }
    slot = (slot + 1) & slot_mask_;
  }
  return false;
}

Status VecAntiJoinOp::Open() {
  ScopedSeconds t(&seconds_);
  rows_produced_ = 0;
  chunks_produced_ = 0;
  match_all_ = false;
  build_keys_ = 0;

  const IdTable& build = *ref_.build;
  const size_t cap = NextPow2(build.num_rows() * 2);
  slot_key_.assign(cap, 0);
  if (wide_) slot_key_hi_.assign(cap, 0);
  slot_used_.assign(cap, 0);
  slot_mask_ = cap - 1;
  for (size_t r = 0; r < build.num_rows(); ++r) {
    if (!AntiJoinBuildRowQualifies(build, r, const_checks_, dup_checks_)) {
      continue;
    }
    if (key_build_cols_.empty()) {
      // Fully-ground literal already satisfied by evidence: every child
      // row is pruned.
      match_all_ = true;
      break;
    }
    uint64_t lo, hi;
    PackBuildKey(build, r, &lo, &hi);
    size_t slot = HashSlot(lo, hi) & slot_mask_;
    while (slot_used_[slot] != 0 &&
           !(slot_key_[slot] == lo && (!wide_ || slot_key_hi_[slot] == hi))) {
      slot = (slot + 1) & slot_mask_;
    }
    if (slot_used_[slot] == 0) {
      slot_used_[slot] = 1;
      slot_key_[slot] = lo;
      if (wide_) slot_key_hi_[slot] = hi;
      ++build_keys_;
    }
  }
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
    if (match_all_) continue;
    if (build_keys_ == 0) {
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
  slot_key_.clear();
  slot_key_hi_.clear();
  slot_used_.clear();
  build_keys_ = 0;
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
