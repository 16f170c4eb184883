#ifndef TUFFY_RA_SCHEMA_H_
#define TUFFY_RA_SCHEMA_H_

#include <string>
#include <vector>

#include "ra/datum.h"

namespace tuffy {

/// One attribute of a relation.
struct Column {
  std::string name;
  ColumnType type;
};

/// Ordered list of columns; cheap to copy.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Column> columns) : columns_(std::move(columns)) {}

  size_t num_columns() const { return columns_.size(); }
  const Column& column(size_t i) const { return columns_[i]; }
  const std::vector<Column>& columns() const { return columns_; }

  /// Concatenation of two schemas (join output).
  static Schema Concat(const Schema& left, const Schema& right) {
    std::vector<Column> cols = left.columns_;
    cols.insert(cols.end(), right.columns_.begin(), right.columns_.end());
    return Schema(std::move(cols));
  }

  std::string ToString() const;

 private:
  std::vector<Column> columns_;
};

/// A row of datums, aligned with a Schema.
using Row = std::vector<Datum>;

}  // namespace tuffy

#endif  // TUFFY_RA_SCHEMA_H_
