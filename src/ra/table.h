#ifndef TUFFY_RA_TABLE_H_
#define TUFFY_RA_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ra/id_table.h"
#include "ra/schema.h"
#include "util/result.h"
#include "util/status.h"

namespace tuffy {

/// A materialized row-oriented relation: schema plus Datum rows, with
/// append-based bulk loading. The grounding catalog holds one per type
/// domain (`_dom_<type>`); the evidence itself lives in EvidenceDb's
/// columnar relations (mln/model.h), not here. Plans never read a
/// Table's rows: they scan the IdTable mirror Analyze builds.
class Table {
 public:
  Table(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  uint64_t num_rows() const { return rows_.size(); }

  const Row& row(size_t i) const { return rows_[i]; }
  const std::vector<Row>& rows() const { return rows_; }

  /// Appends a row; the caller is responsible for schema conformance
  /// (checked in debug builds).
  void Append(Row row);

  /// Appends with full type checking.
  Status AppendChecked(Row row);

  /// ANALYZE: (re)builds the columnar id view when the schema qualifies
  /// and recomputes the statistics from it with AnalyzeColumns (exact
  /// up to 8192 rows, a fixed-seed sampled estimate above). A relation
  /// with no id view gets a row count and zero distinct estimates.
  const TableStats& Analyze();

  /// Columnar mirror for both executors: non-null only after Analyze on
  /// an all-kInt64, NULL-free relation, and invalidated by any mutation.
  /// Never built lazily — grounding reads tables from many threads, so
  /// the build happens at ANALYZE time on the loader thread.
  const IdTable* id_view() const { return id_view_.get(); }

  /// Statistics of the last Analyze (empty before the first).
  const TableStats& stats() const { return stats_; }

  /// Rough payload size in bytes, for memory accounting.
  size_t EstimateBytes() const;

 private:
  std::string name_;
  Schema schema_;
  std::vector<Row> rows_;
  TableStats stats_;
  std::unique_ptr<IdTable> id_view_;
};

}  // namespace tuffy

#endif  // TUFFY_RA_TABLE_H_
