#ifndef TUFFY_RA_ID_TABLE_H_
#define TUFFY_RA_ID_TABLE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace tuffy {

class Table;

/// Columnar relation whose attributes are all interned constant ids
/// (kInt64, no NULLs): one flat int64 vector per column. This is the
/// storage format both executors scan — no per-row vector, no per-cell
/// variant tag, one contiguous array per attribute (Section 3.1's
/// relations, laid out the way a column store would).
///
/// Two kinds of owner: Table::Analyze builds one as the columnar mirror
/// of a row-oriented Table (the domain tables), and the evidence side
/// tables own theirs outright and mutate them per evidence delta. The
/// side tables' true-row IdTables are the relations grounding's binding
/// literals join, so their row order is read by binding scans and feeds
/// candidate order: it is a function of the mutation history (appends
/// land last, removals swap the last row into the hole), and snapshots
/// preserve it.
class IdTable {
 public:
  IdTable() = default;

  size_t num_rows() const { return num_rows_; }
  size_t num_cols() const { return cols_.size(); }
  const std::vector<int64_t>& col(size_t i) const { return cols_[i]; }

  /// True when every value fits in [0, 2^31): the precondition for
  /// packing two key columns into one uint64 hash-join key.
  bool narrow() const { return narrow_; }

  /// Populates `out` from `table` if every column is kInt64 and no cell
  /// is NULL; returns false (leaving `out` unspecified) otherwise.
  static bool Build(const Table& table, IdTable* out);

  // ---- Incremental mutation (the evidence side tables own IdTables
  // directly and keep them current per evidence delta). Removal swaps
  // with the last row, so row order depends on the mutation history.

  /// Resets to `num_cols` empty columns.
  void Init(size_t num_cols) {
    num_rows_ = 0;
    narrow_ = true;
    cols_.assign(num_cols, {});
  }

  /// Appends one row; a value outside [0, 2^31) clears the narrow flag.
  template <typename T>
  void AppendRow(const std::vector<T>& vals) {
    for (size_t c = 0; c < cols_.size(); ++c) {
      const int64_t v = static_cast<int64_t>(vals[c]);
      if (v < 0 || v > INT32_MAX) narrow_ = false;
      cols_[c].push_back(v);
    }
    ++num_rows_;
  }

  /// Removes row `i` by swapping the last row into its place.
  void SwapRemoveRow(size_t i) {
    const size_t last = num_rows_ - 1;
    for (auto& col : cols_) {
      col[i] = col[last];
      col.pop_back();
    }
    --num_rows_;
  }

  size_t EstimateBytes() const {
    size_t bytes = 0;
    for (const auto& c : cols_) bytes += c.capacity() * sizeof(int64_t);
    return bytes;
  }

 private:
  size_t num_rows_ = 0;
  std::vector<std::vector<int64_t>> cols_;
  bool narrow_ = true;
};

/// Per-column statistics used by the optimizer's cardinality estimator
/// (PostgreSQL's pg_statistic, in miniature).
struct ColumnStats {
  uint64_t num_distinct = 0;
};

/// ANALYZE output for one relation. `columns.size()` is the relation's
/// width, also when it has no rows.
struct TableStats {
  uint64_t num_rows = 0;
  std::vector<ColumnStats> columns;
};

/// ANALYZE over columnar rows: the row count and per-column distinct
/// counts of the concatenation of `segments` (in order), a relation of
/// `num_cols` columns. A segment with no rows may have zero columns.
/// num_distinct is exact up to 8192 rows; above that it is a sampled
/// GEE estimate from a fixed-seed 4096-row sample, so ANALYZE stays
/// cheap on large relations and its output is a pure function of the
/// rows and their order — never of the run, the thread count, or how
/// the rows are split into segments.
TableStats AnalyzeColumns(const std::vector<const IdTable*>& segments,
                          size_t num_cols);

}  // namespace tuffy

#endif  // TUFFY_RA_ID_TABLE_H_
