#include "ra/table.h"

#include <cassert>

#include "util/string_util.h"

namespace tuffy {

void Table::Append(Row row) {
  assert(row.size() == schema_.num_columns());
  rows_.push_back(std::move(row));
  id_view_.reset();
}

Status Table::AppendChecked(Row row) {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        StrFormat("row has %zu values, schema %s has %zu columns", row.size(),
                  name_.c_str(), schema_.num_columns()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    const Datum& d = row[i];
    if (d.is_null()) continue;
    ColumnType t = schema_.column(i).type;
    bool ok = (t == ColumnType::kInt64 && d.is_int64()) ||
              (t == ColumnType::kDouble && d.is_double()) ||
              (t == ColumnType::kString && d.is_string()) ||
              (t == ColumnType::kBool && d.is_bool());
    if (!ok) {
      return Status::InvalidArgument(
          StrFormat("column %s.%s expects %s, got %s", name_.c_str(),
                    schema_.column(i).name.c_str(), ColumnTypeToString(t),
                    d.ToString().c_str()));
    }
  }
  rows_.push_back(std::move(row));
  id_view_.reset();
  return Status::OK();
}

const TableStats& Table::Analyze() {
  id_view_.reset();
  auto view = std::make_unique<IdTable>();
  if (IdTable::Build(*this, view.get())) {
    id_view_ = std::move(view);
    stats_ = AnalyzeColumns({id_view_.get()}, schema_.num_columns());
  } else {
    stats_ = TableStats{};
    stats_.num_rows = rows_.size();
    stats_.columns.assign(schema_.num_columns(), ColumnStats{});
  }
  return stats_;
}

size_t Table::EstimateBytes() const {
  size_t bytes = 0;
  for (const Row& r : rows_) {
    bytes += sizeof(Row) + r.size() * sizeof(Datum);
    for (const Datum& d : r) {
      if (d.is_string()) bytes += d.str().size();
    }
  }
  if (id_view_ != nullptr) bytes += id_view_->EstimateBytes();
  return bytes;
}

}  // namespace tuffy
