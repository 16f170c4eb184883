#ifndef TUFFY_RA_QUERY_H_
#define TUFFY_RA_QUERY_H_

#include <string>
#include <vector>

#include "ra/expr.h"
#include "ra/table.h"

namespace tuffy {

/// One relation instance in a conjunctive (select-project-join) query:
/// columnar rows, their ANALYZE statistics, and a label for EXPLAIN and
/// the scan operators. The rows are one or more IdTable segments read
/// in order as a single relation — a table's id view, an evidence
/// relation scanned in place, or the serving path's two-segment union of
/// a delta's new rows and an evidence relation. The segments and stats must
/// outlive plan execution and stay unmutated while it runs.
///
/// `filter` is a predicate over this relation's columns alone and is
/// pushed below the joins by the optimizer (predicate pushdown).
struct TableRef {
  std::vector<const IdTable*> segments;
  /// Statistics of the concatenated segments; `stats->columns.size()`
  /// is the relation's width, also when every segment is empty.
  const TableStats* stats = nullptr;
  std::string label;
  ExprPtr filter;  // may be null
  /// Fraction of rows expected to pass `filter`; set by the query builder.
  double selectivity = 1.0;

  size_t num_cols() const { return stats->columns.size(); }
};

/// A reference to an ANALYZEd all-id table's columnar mirror, labelled
/// with the table's name.
inline TableRef RefTo(const Table& table) {
  TableRef ref;
  ref.segments = {table.id_view()};
  ref.stats = &table.stats();
  ref.label = table.name();
  return ref;
}

/// Equality between a column of one table ref and a column of another.
struct JoinCondition {
  int left_table;
  int left_col;
  int right_table;
  int right_col;
};

/// An output column: the `col`-th attribute of the `table`-th ref.
struct OutputCol {
  int table;
  int col;
  std::string name;
};

/// One column of an anti-join probe key: either the `probe_col`-th
/// *output* column of the query, or (probe_col < 0) a required constant.
struct AntiJoinTerm {
  int probe_col = -1;
  int64_t constant = 0;
};

/// An anti-join over the query's final output rows: a row is dropped iff
/// some build-side row matches it on every term (build column i against
/// the probe column / constant of terms[i]). The grounding compiler
/// emits one per prunable clause literal, with the build side pointing
/// at an evidence relation (EvidenceDb::rows) — this is how the
/// satisfied-by-evidence test is pushed into the RA plan, as
/// Tuffy's SQL does, so trivially-satisfied clauses never leave the
/// executor. The IdTable must outlive plan execution.
struct AntiJoinRef {
  const IdTable* build = nullptr;
  std::vector<AntiJoinTerm> terms;  // one per build column
  std::string label;
};

/// The select-project-join query shape that MLN grounding compiles to
/// (Algorithm 2 in the paper): one TableRef per binding literal or free
/// variable domain, join conditions for shared variables, per-ref
/// filters for constants and repeated variables, and the atom-id output
/// columns. `anti_joins` run above the projection, in order.
struct ConjunctiveQuery {
  std::vector<TableRef> tables;
  std::vector<JoinCondition> joins;
  std::vector<OutputCol> outputs;
  std::vector<AntiJoinRef> anti_joins;
};

}  // namespace tuffy

#endif  // TUFFY_RA_QUERY_H_
