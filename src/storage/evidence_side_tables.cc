#include "storage/evidence_side_tables.h"

namespace tuffy {

void EvidenceSideTables::Rebuild(const EvidenceDb& evidence) {
  for (PredTables& pt : preds_) {
    for (Side& s : pt.side) {
      s.rows = IdTable();
      s.row_of.clear();
      s.indexed = false;
    }
    pt.true_stats = TableStats{};
  }
  // The evidence map holds each atom once, so bulk loading is pure
  // columnar appends — no dedup, and no row index (EnsureIndex builds
  // it if a mutation ever arrives).
  for (const auto& [atom, truth] : evidence.entries()) {
    Side& s = preds_[atom.pred].side[truth ? 1 : 0];
    if (s.rows.num_cols() != atom.args.size()) {
      s.rows.Init(atom.args.size());
    }
    s.rows.AppendRow(atom.args);
  }
}

void EvidenceSideTables::AnalyzeTrueRows(const Predicate& pred) {
  preds_[pred.id].true_stats =
      AnalyzeColumns({&true_rows(pred.id)}, pred.arity());
}

void EvidenceSideTables::EnsureIndex(Side* side) {
  if (side->indexed) return;
  side->indexed = true;
  side->row_of.reserve(side->rows.num_rows());
  std::vector<ConstantId> args;
  for (size_t r = 0; r < side->rows.num_rows(); ++r) {
    args.clear();
    for (size_t c = 0; c < side->rows.num_cols(); ++c) {
      args.push_back(static_cast<ConstantId>(side->rows.col(c)[r]));
    }
    side->row_of.emplace(args, static_cast<uint32_t>(r));
  }
}

void EvidenceSideTables::Insert(const GroundAtom& atom, bool truth) {
  Side& s = preds_[atom.pred].side[truth ? 1 : 0];
  if (s.rows.num_cols() != atom.args.size()) {
    // First row of this polarity fixes the arity.
    s.rows.Init(atom.args.size());
  }
  EnsureIndex(&s);
  auto [it, inserted] =
      s.row_of.emplace(atom.args, static_cast<uint32_t>(s.rows.num_rows()));
  if (!inserted) return;
  s.rows.AppendRow(atom.args);
}

void EvidenceSideTables::Erase(const GroundAtom& atom, bool truth) {
  Side& s = preds_[atom.pred].side[truth ? 1 : 0];
  EnsureIndex(&s);
  auto it = s.row_of.find(atom.args);
  if (it == s.row_of.end()) return;
  const uint32_t row = it->second;
  s.row_of.erase(it);
  const size_t last = s.rows.num_rows() - 1;
  if (row != last) {
    // The last row moves into the hole; repoint its index entry first.
    scratch_args_.clear();
    for (size_t c = 0; c < s.rows.num_cols(); ++c) {
      scratch_args_.push_back(static_cast<ConstantId>(s.rows.col(c)[last]));
    }
    s.row_of[scratch_args_] = row;
  }
  s.rows.SwapRemoveRow(row);
}

void EvidenceSideTables::OnEvidenceSet(const GroundAtom& atom, bool truth,
                                       bool had_old, bool old_truth) {
  if (had_old && old_truth == truth) return;
  if (had_old) Erase(atom, old_truth);
  Insert(atom, truth);
  ++mutations_applied_;
}

void EvidenceSideTables::OnEvidenceErased(const GroundAtom& atom,
                                          bool old_truth) {
  Erase(atom, old_truth);
  ++mutations_applied_;
}

size_t EvidenceSideTables::EstimateBytes() const {
  // Flat columns plus a flat node-overhead charge per index entry
  // (admission-control accounting, not malloc truth).
  constexpr size_t kNodeOverhead = 64;
  size_t bytes = 0;
  for (const PredTables& pt : preds_) {
    for (const Side& s : pt.side) {
      bytes += s.rows.EstimateBytes();
      bytes += s.row_of.size() *
               (kNodeOverhead + s.rows.num_cols() * sizeof(ConstantId));
    }
  }
  return bytes;
}

}  // namespace tuffy
