#ifndef TUFFY_STORAGE_EVIDENCE_SIDE_TABLES_H_
#define TUFFY_STORAGE_EVIDENCE_SIDE_TABLES_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "mln/model.h"
#include "ra/id_table.h"

namespace tuffy {

/// Persistent per-predicate evidence side tables: for every predicate,
/// one columnar relation of the explicitly-true atoms and one of the
/// explicitly-false atoms (arg0..argK-1, no truth column — polarity is
/// the table). This is the relational mirror of the EvidenceDb, split
/// the way grounding consumes it:
///
/// - A closed-world predicate's true rows are the relation its binding
///   literals join: both executors scan them in place, with the ANALYZE
///   statistics kept here (true_stats). There is no second copy of the
///   evidence in the RA catalog.
/// - The RA optimizer anti-joins candidate bindings against these
///   relations to prune clauses already satisfied by the evidence inside
///   the query (Tuffy's satisfied-by-evidence SQL test), so pruned rows
///   never reach resolution.
/// - The grounding pattern-count index reads one predicate's rows
///   directly, instead of filtering a scan of the whole evidence map.
///
/// Backed by mutable IdTables plus an args -> row index per polarity, so
/// maintenance is incremental: attach an instance to an EvidenceDb
/// (EvidenceDb::SetListener) after Rebuild and every Add/Remove updates
/// the affected rows in O(1) — per-delta side-table maintenance cost is
/// proportional to the delta, not to |evidence|. Rebuild is the one
/// full-scan operation and runs once per database load.
///
/// Thread safety: mutation (and AnalyzeTrueRows) must be
/// single-threaded; concurrent reads (parallel per-rule grounding) are
/// safe once mutation has stopped.
class EvidenceSideTables final : public EvidenceListener {
 public:
  explicit EvidenceSideTables(size_t num_predicates)
      : preds_(num_predicates) {}

  EvidenceSideTables(const EvidenceSideTables&) = delete;
  EvidenceSideTables& operator=(const EvidenceSideTables&) = delete;

  /// Bulk (re)build from an evidence snapshot — the only O(|evidence|)
  /// operation. Call once before attaching as a listener.
  void Rebuild(const EvidenceDb& evidence);

  /// The rows of `pred` whose explicit evidence truth is `truth`. Empty
  /// (zero columns) when the predicate has no such evidence.
  const IdTable& rows(PredicateId pred, bool truth) const {
    return preds_[pred].side[truth ? 1 : 0].rows;
  }
  const IdTable& true_rows(PredicateId pred) const { return rows(pred, true); }
  const IdTable& false_rows(PredicateId pred) const {
    return rows(pred, false);
  }

  size_t num_predicates() const { return preds_.size(); }

  /// ANALYZE statistics of `pred`'s true rows as of the last
  /// AnalyzeTrueRows(pred) — empty (zero columns) before the first.
  /// Rows may change after that without the stats following: the owner
  /// re-analyzes every predicate it mutated, on the mutating thread,
  /// before any plan reads them. Never lazily inside a scan — rules plan
  /// and run on pool workers in parallel.
  const TableStats& true_stats(PredicateId pred) const {
    return preds_[pred].true_stats;
  }

  /// Recomputes true_stats(pred.id) from the current true rows
  /// (AnalyzeColumns: exact up to 8192 rows, fixed-seed sample above,
  /// so the result is a function of the rows and their order alone).
  void AnalyzeTrueRows(const Predicate& pred);

  /// Incremental mutations applied since construction (observability for
  /// tests and benches: serving deltas must advance this, never trigger
  /// a Rebuild).
  uint64_t mutations_applied() const { return mutations_applied_; }

  /// Installs deserialized rows for one predicate/polarity wholesale
  /// (snapshot restore). Replaces any existing rows; the lazy args->row
  /// index is dropped and rebuilt on the first subsequent mutation, so
  /// restored tables behave exactly like Rebuild output — crucially, row
  /// *order* is whatever the snapshot recorded, keeping binding scans
  /// bit-reproducible. The caller re-analyzes afterwards.
  void RestoreSide(PredicateId pred, bool truth, IdTable rows) {
    Side& side = preds_[pred].side[truth ? 1 : 0];
    side.rows = std::move(rows);
    side.row_of.clear();
    side.indexed = false;
  }

  size_t EstimateBytes() const;

  // EvidenceListener: forwarded by the attached EvidenceDb.
  void OnEvidenceSet(const GroundAtom& atom, bool truth, bool had_old,
                     bool old_truth) override;
  void OnEvidenceErased(const GroundAtom& atom, bool old_truth) override;

 private:
  struct Side {
    IdTable rows;
    /// args -> row position, for O(1) removal (swap-with-last). Built
    /// lazily on the first mutation: bulk grounding only ever Rebuilds
    /// and reads, and paying the hash index there would put an
    /// O(|evidence|) indexing pass on every one-shot Ground() call.
    std::unordered_map<std::vector<ConstantId>, uint32_t,
                       GroundAtomHash_ArgsOnly>
        row_of;
    bool indexed = false;
  };
  struct PredTables {
    Side side[2];  // [0] = explicit-false rows, [1] = explicit-true rows
    TableStats true_stats;
  };

  void EnsureIndex(Side* side);
  void Insert(const GroundAtom& atom, bool truth);
  void Erase(const GroundAtom& atom, bool truth);

  std::vector<PredTables> preds_;
  std::vector<ConstantId> scratch_args_;
  uint64_t mutations_applied_ = 0;
};

}  // namespace tuffy

#endif  // TUFFY_STORAGE_EVIDENCE_SIDE_TABLES_H_
