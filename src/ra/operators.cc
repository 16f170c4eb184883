#include "ra/operators.h"

#include <algorithm>
#include <cassert>

#include "util/string_util.h"

namespace tuffy {

namespace {
Row ConcatRows(const Row& left, const Row& right) {
  Row out;
  out.reserve(left.size() + right.size());
  out.insert(out.end(), left.begin(), left.end());
  out.insert(out.end(), right.begin(), right.end());
  return out;
}
}  // namespace

// --------------------------------------------------------------- Analyze

void EnableAnalyze(PhysicalOp* root) {
  root->set_analyze(true);
  root->ForEachChild([](PhysicalOp* child) { EnableAnalyze(child); });
}

void AppendAnalyze(PhysicalOp* root, int depth, std::string* out) {
  *out += StrFormat("%*s%s: rows=%llu time=%.3fms\n", depth * 2, "",
                    root->name().c_str(),
                    static_cast<unsigned long long>(root->rows_produced()),
                    root->seconds() * 1e3);
  root->ForEachChild(
      [&](PhysicalOp* child) { AppendAnalyze(child, depth + 1, out); });
}

// ---------------------------------------------------------------- SeqScan

SeqScanOp::SeqScanOp(const TableRef& ref)
    : segments_(ref.segments), label_(ref.label) {
  std::vector<Column> cols;
  for (size_t c = 0; c < ref.num_cols(); ++c) {
    cols.push_back(Column{StrFormat("c%zu", c), ColumnType::kInt64});
  }
  schema_ = Schema(std::move(cols));
}

Status SeqScanOp::Open() {
  segment_ = 0;
  pos_ = 0;
  rows_produced_ = 0;
  return Status::OK();
}

Result<bool> SeqScanOp::Next(Row* out) {
  MaybeTimer t(this);
  while (segment_ < segments_.size() &&
         pos_ >= segments_[segment_]->num_rows()) {
    ++segment_;
    pos_ = 0;
  }
  if (segment_ >= segments_.size()) return false;
  const IdTable& rows = *segments_[segment_];
  out->clear();
  for (size_t c = 0; c < schema_.num_columns(); ++c) {
    out->push_back(Datum(rows.col(c)[pos_]));
  }
  ++pos_;
  ++rows_produced_;
  return true;
}

// ----------------------------------------------------------------- Filter

Status FilterOp::Open() {
  rows_produced_ = 0;
  MaybeTimer t(this);
  return child_->Open();
}

Result<bool> FilterOp::Next(Row* out) {
  MaybeTimer t(this);
  while (true) {
    TUFFY_ASSIGN_OR_RETURN(bool has, child_->Next(out));
    if (!has) return false;
    if (predicate_->EvalBool(*out)) {
      ++rows_produced_;
      return true;
    }
  }
}

// ---------------------------------------------------------------- Project

ProjectOp::ProjectOp(PhysicalOpPtr child, std::vector<int> columns,
                     std::vector<std::string> names)
    : child_(std::move(child)), columns_(std::move(columns)) {
  const Schema& in = child_->output_schema();
  std::vector<Column> cols;
  for (size_t i = 0; i < columns_.size(); ++i) {
    Column c = in.column(columns_[i]);
    if (i < names.size() && !names[i].empty()) c.name = names[i];
    cols.push_back(std::move(c));
  }
  schema_ = Schema(std::move(cols));
}

Result<bool> ProjectOp::Next(Row* out) {
  MaybeTimer t(this);
  Row in;
  TUFFY_ASSIGN_OR_RETURN(bool has, child_->Next(&in));
  if (!has) return false;
  out->clear();
  out->reserve(columns_.size());
  for (int c : columns_) out->push_back(in[c]);
  ++rows_produced_;
  return true;
}

std::string ProjectOp::name() const {
  return StrFormat("Project(%zu cols)", columns_.size());
}

// ---------------------------------------------------------- NestedLoopJoin

NestedLoopJoinOp::NestedLoopJoinOp(PhysicalOpPtr left, PhysicalOpPtr right,
                                   std::vector<JoinKey> keys, ExprPtr residual)
    : left_(std::move(left)),
      right_(std::move(right)),
      keys_(std::move(keys)),
      residual_(std::move(residual)) {
  schema_ = Schema::Concat(left_->output_schema(), right_->output_schema());
}

Status NestedLoopJoinOp::Open() {
  rows_produced_ = 0;
  MaybeTimer t(this);
  TUFFY_RETURN_IF_ERROR(left_->Open());
  TUFFY_RETURN_IF_ERROR(right_->Open());
  right_rows_.clear();
  Row row;
  while (true) {
    auto has = right_->Next(&row);
    if (!has.ok()) return has.status();
    if (!has.value()) break;
    right_rows_.push_back(row);
  }
  left_valid_ = false;
  right_pos_ = 0;
  return Status::OK();
}

Result<bool> NestedLoopJoinOp::Next(Row* out) {
  MaybeTimer t(this);
  while (true) {
    if (!left_valid_) {
      TUFFY_ASSIGN_OR_RETURN(bool has, left_->Next(&left_row_));
      if (!has) return false;
      left_valid_ = true;
      right_pos_ = 0;
    }
    while (right_pos_ < right_rows_.size()) {
      const Row& right_row = right_rows_[right_pos_++];
      bool match = true;
      for (const JoinKey& k : keys_) {
        const Datum& l = left_row_[k.left_col];
        const Datum& r = right_row[k.right_col];
        if (l.is_null() || r.is_null() || !(l == r)) {
          match = false;
          break;
        }
      }
      if (!match) continue;
      Row joined = ConcatRows(left_row_, right_row);
      if (residual_ != nullptr && !residual_->EvalBool(joined)) continue;
      *out = std::move(joined);
      ++rows_produced_;
      return true;
    }
    left_valid_ = false;
  }
}

void NestedLoopJoinOp::Close() {
  left_->Close();
  right_->Close();
  right_rows_.clear();
}

std::string NestedLoopJoinOp::name() const {
  return StrFormat("NestedLoopJoin(keys=%zu)", keys_.size());
}

// --------------------------------------------------------------- HashJoin

HashJoinOp::HashJoinOp(PhysicalOpPtr left, PhysicalOpPtr right,
                       std::vector<JoinKey> keys, ExprPtr residual)
    : left_(std::move(left)),
      right_(std::move(right)),
      keys_(std::move(keys)),
      residual_(std::move(residual)) {
  schema_ = Schema::Concat(left_->output_schema(), right_->output_schema());
}

bool HashJoinOp::FillKey(const Row& row, bool left) {
  scratch_key_.clear();
  for (const JoinKey& k : keys_) {
    const Datum& d = row[left ? k.left_col : k.right_col];
    if (d.is_null()) return false;  // NULL keys never join
    scratch_key_.push_back(d);
  }
  return true;
}

Status HashJoinOp::Open() {
  rows_produced_ = 0;
  MaybeTimer t(this);
  TUFFY_RETURN_IF_ERROR(left_->Open());
  TUFFY_RETURN_IF_ERROR(right_->Open());
  hash_table_.clear();
  Row row;
  while (true) {
    auto has = right_->Next(&row);
    if (!has.ok()) return has.status();
    if (!has.value()) break;
    if (!FillKey(row, /*left=*/false)) continue;
    // find-then-emplace keeps the scratch buffer alive: the key vector is
    // only copied when a new distinct key is inserted.
    auto it = hash_table_.find(scratch_key_);
    if (it == hash_table_.end()) {
      it = hash_table_.emplace(scratch_key_, std::vector<Row>{}).first;
    }
    it->second.push_back(row);
  }
  left_valid_ = false;
  matches_ = nullptr;
  match_pos_ = 0;
  return Status::OK();
}

Result<bool> HashJoinOp::Next(Row* out) {
  MaybeTimer t(this);
  while (true) {
    if (!left_valid_) {
      TUFFY_ASSIGN_OR_RETURN(bool has, left_->Next(&left_row_));
      if (!has) return false;
      left_valid_ = true;
      if (!FillKey(left_row_, /*left=*/true)) {
        left_valid_ = false;
        continue;
      }
      auto it = hash_table_.find(scratch_key_);
      if (it == hash_table_.end()) {
        left_valid_ = false;
        continue;
      }
      matches_ = &it->second;
      match_pos_ = 0;
    }
    while (match_pos_ < matches_->size()) {
      Row joined = ConcatRows(left_row_, (*matches_)[match_pos_++]);
      if (residual_ != nullptr && !residual_->EvalBool(joined)) continue;
      *out = std::move(joined);
      ++rows_produced_;
      return true;
    }
    left_valid_ = false;
  }
}

void HashJoinOp::Close() {
  left_->Close();
  right_->Close();
  hash_table_.clear();
}

std::string HashJoinOp::name() const {
  return StrFormat("HashJoin(keys=%zu)", keys_.size());
}

// ---------------------------------------------------------- SortMergeJoin

SortMergeJoinOp::SortMergeJoinOp(PhysicalOpPtr left, PhysicalOpPtr right,
                                 std::vector<JoinKey> keys, ExprPtr residual)
    : left_(std::move(left)),
      right_(std::move(right)),
      keys_(std::move(keys)),
      residual_(std::move(residual)) {
  schema_ = Schema::Concat(left_->output_schema(), right_->output_schema());
}

std::vector<Datum> SortMergeJoinOp::Key(const Row& row, bool left) const {
  std::vector<Datum> key;
  key.reserve(keys_.size());
  for (const JoinKey& k : keys_) {
    key.push_back(row[left ? k.left_col : k.right_col]);
  }
  return key;
}

Status SortMergeJoinOp::Open() {
  rows_produced_ = 0;
  MaybeTimer t(this);
  TUFFY_RETURN_IF_ERROR(left_->Open());
  TUFFY_RETURN_IF_ERROR(right_->Open());
  left_rows_.clear();
  right_rows_.clear();
  Row row;
  while (true) {
    auto has = left_->Next(&row);
    if (!has.ok()) return has.status();
    if (!has.value()) break;
    left_rows_.emplace_back(Key(row, /*left=*/true), row);
  }
  while (true) {
    auto has = right_->Next(&row);
    if (!has.ok()) return has.status();
    if (!has.value()) break;
    right_rows_.emplace_back(Key(row, /*left=*/false), row);
  }
  // Keys are computed once per row above; the sort compares the cached
  // key vectors instead of rebuilding them on every comparison.
  auto cmp = [](const std::pair<std::vector<Datum>, Row>& a,
                const std::pair<std::vector<Datum>, Row>& b) {
    return a.first < b.first;
  };
  std::sort(left_rows_.begin(), left_rows_.end(), cmp);
  std::sort(right_rows_.begin(), right_rows_.end(), cmp);
  li_ = ri_ = 0;
  in_group_ = false;
  return Status::OK();
}

Result<bool> SortMergeJoinOp::Next(Row* out) {
  MaybeTimer t(this);
  while (true) {
    if (in_group_) {
      // Emit the cross product of the current equal-key groups.
      while (cur_left_ < group_left_end_) {
        while (cur_right_ < group_right_end_) {
          Row joined = ConcatRows(left_rows_[cur_left_].second,
                                  right_rows_[cur_right_].second);
          ++cur_right_;
          if (residual_ != nullptr && !residual_->EvalBool(joined)) continue;
          *out = std::move(joined);
          ++rows_produced_;
          return true;
        }
        cur_right_ = group_right_begin_;
        ++cur_left_;
      }
      in_group_ = false;
      li_ = group_left_end_;
      ri_ = group_right_end_;
    }
    if (li_ >= left_rows_.size() || ri_ >= right_rows_.size()) return false;
    const std::vector<Datum>& lk = left_rows_[li_].first;
    const std::vector<Datum>& rk = right_rows_[ri_].first;
    bool null_key = false;
    for (const Datum& d : lk) null_key |= d.is_null();
    if (null_key) {
      ++li_;
      continue;
    }
    for (const Datum& d : rk) null_key |= d.is_null();
    if (null_key) {
      ++ri_;
      continue;
    }
    if (lk < rk) {
      ++li_;
    } else if (rk < lk) {
      ++ri_;
    } else {
      // Delimit both equal-key groups.
      group_left_end_ = li_;
      while (group_left_end_ < left_rows_.size() &&
             left_rows_[group_left_end_].first == lk) {
        ++group_left_end_;
      }
      group_right_begin_ = ri_;
      group_right_end_ = ri_;
      while (group_right_end_ < right_rows_.size() &&
             right_rows_[group_right_end_].first == rk) {
        ++group_right_end_;
      }
      cur_left_ = li_;
      cur_right_ = group_right_begin_;
      in_group_ = true;
    }
  }
}

void SortMergeJoinOp::Close() {
  left_->Close();
  right_->Close();
  left_rows_.clear();
  right_rows_.clear();
}

std::string SortMergeJoinOp::name() const {
  return StrFormat("SortMergeJoin(keys=%zu)", keys_.size());
}

// --------------------------------------------------------------- AntiJoin

void CompileAntiJoinKeys(const AntiJoinRef& ref,
                         std::vector<std::pair<int, int64_t>>* const_checks,
                         std::vector<std::pair<int, int>>* dup_checks,
                         std::vector<int>* key_build_cols,
                         std::vector<int>* key_probe_cols) {
  for (size_t i = 0; i < ref.terms.size(); ++i) {
    const AntiJoinTerm& term = ref.terms[i];
    if (term.probe_col < 0) {
      const_checks->emplace_back(static_cast<int>(i), term.constant);
      continue;
    }
    int rep = -1;
    for (size_t k = 0; k < key_probe_cols->size(); ++k) {
      if ((*key_probe_cols)[k] == term.probe_col) {
        rep = (*key_build_cols)[k];
      }
    }
    if (rep >= 0) {
      // Repeated variable: this build column must equal the first
      // occurrence's column; the key carries the value once.
      dup_checks->emplace_back(rep, static_cast<int>(i));
    } else {
      key_build_cols->push_back(static_cast<int>(i));
      key_probe_cols->push_back(term.probe_col);
    }
  }
}

bool AntiJoinBuildRowQualifies(
    const IdTable& build, size_t row,
    const std::vector<std::pair<int, int64_t>>& const_checks,
    const std::vector<std::pair<int, int>>& dup_checks) {
  for (const auto& [col, value] : const_checks) {
    if (build.col(col)[row] != value) return false;
  }
  for (const auto& [a, b] : dup_checks) {
    if (build.col(a)[row] != build.col(b)[row]) return false;
  }
  return true;
}

AntiJoinOp::AntiJoinOp(PhysicalOpPtr child, AntiJoinRef ref)
    : child_(std::move(child)), ref_(std::move(ref)) {
  CompileAntiJoinKeys(ref_, &const_checks_, &dup_checks_, &key_build_cols_,
                      &key_probe_cols_);
}

Status AntiJoinOp::Open() {
  rows_produced_ = 0;
  MaybeTimer t(this);
  keys_.clear();
  match_all_ = false;
  const IdTable& build = *ref_.build;
  keys_.reserve(build.num_rows());
  for (size_t r = 0; r < build.num_rows(); ++r) {
    if (!AntiJoinBuildRowQualifies(build, r, const_checks_, dup_checks_)) {
      continue;
    }
    if (key_build_cols_.empty()) {
      match_all_ = true;
      break;
    }
    scratch_key_.clear();
    for (int c : key_build_cols_) scratch_key_.push_back(build.col(c)[r]);
    keys_.insert(scratch_key_);
  }
  return child_->Open();
}

Result<bool> AntiJoinOp::Next(Row* out) {
  MaybeTimer t(this);
  while (true) {
    TUFFY_ASSIGN_OR_RETURN(bool has, child_->Next(out));
    if (!has) return false;
    // match_all (fully-ground literal satisfied by evidence) drains the
    // child instead of short-circuiting: the pruned-row accounting reads
    // the child's row counter, and it must cover these rows too.
    if (match_all_) continue;
    if (!keys_.empty()) {
      scratch_key_.clear();
      for (int c : key_probe_cols_) scratch_key_.push_back((*out)[c].int64());
      if (keys_.find(scratch_key_) != keys_.end()) continue;  // pruned
    }
    ++rows_produced_;
    return true;
  }
}

void AntiJoinOp::Close() {
  child_->Close();
  keys_.clear();
}

// --------------------------------------------------------------- Executor

Result<Table> ExecuteToTable(PhysicalOp* root, const std::string& name) {
  TUFFY_RETURN_IF_ERROR(root->Open());
  Table out(name, root->output_schema());
  Row row;
  while (true) {
    auto has = root->Next(&row);
    if (!has.ok()) return has.status();
    if (!has.value()) break;
    out.Append(std::move(row));
    row.clear();
  }
  root->Close();
  return out;
}

}  // namespace tuffy
