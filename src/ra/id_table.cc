#include "ra/id_table.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "ra/table.h"
#include "util/rng.h"

namespace tuffy {

namespace {

/// Above this row count ANALYZE samples instead of scanning every row.
constexpr size_t kExactDistinctRows = 8192;
/// Sample size for the GEE distinct estimator.
constexpr size_t kDistinctSampleRows = 4096;

/// Guaranteed-Error Estimator (Charikar et al.): scale the singletons of
/// a uniform sample by sqrt(n/m) and keep the repeated values as-is.
/// Exact enough for join ordering, and O(sample) instead of O(table).
uint64_t SampledDistinct(size_t num_rows, const std::vector<uint64_t>& sample) {
  std::unordered_map<uint64_t, uint32_t> freq;
  freq.reserve(sample.size());
  for (uint64_t v : sample) ++freq[v];
  size_t f1 = 0;
  for (const auto& [v, count] : freq) {
    if (count == 1) ++f1;
  }
  double scale = std::sqrt(static_cast<double>(num_rows) /
                           static_cast<double>(sample.size()));
  double est = scale * static_cast<double>(f1) +
               static_cast<double>(freq.size() - f1);
  est = std::min(est, static_cast<double>(num_rows));
  est = std::max(est, static_cast<double>(freq.size()));
  return static_cast<uint64_t>(est);
}

}  // namespace

bool IdTable::Build(const Table& table, IdTable* out) {
  const Schema& schema = table.schema();
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    if (schema.column(c).type != ColumnType::kInt64) return false;
  }
  out->num_rows_ = table.num_rows();
  out->narrow_ = true;
  out->cols_.assign(schema.num_columns(), {});
  for (auto& col : out->cols_) col.reserve(table.num_rows());
  for (const Row& row : table.rows()) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (!row[c].is_int64()) return false;  // NULL or mistyped cell
      int64_t v = row[c].int64();
      if (v < 0 || v > INT32_MAX) out->narrow_ = false;
      out->cols_[c].push_back(v);
    }
  }
  return true;
}

TableStats AnalyzeColumns(const std::vector<const IdTable*>& segments,
                          size_t num_cols) {
  TableStats stats;
  for (const IdTable* seg : segments) stats.num_rows += seg->num_rows();
  stats.columns.assign(num_cols, ColumnStats{});
  const size_t n = stats.num_rows;

  // Deterministic sample positions shared by every column (fixed seed:
  // ANALYZE output must not vary run to run or thread count to thread
  // count — the optimizer's plans feed bit-identical grounding checks),
  // each resolved once to (segment, row).
  std::vector<std::pair<const IdTable*, size_t>> sample;
  const bool sampled = n > kExactDistinctRows;
  if (sampled) {
    Rng rng(0xA11A1);
    sample.reserve(kDistinctSampleRows);
    for (size_t i = 0; i < kDistinctSampleRows; ++i) {
      size_t row = static_cast<size_t>(rng.Uniform(n));
      size_t s = 0;
      while (row >= segments[s]->num_rows()) row -= segments[s++]->num_rows();
      sample.emplace_back(segments[s], row);
    }
  }

  std::vector<uint64_t> values;
  values.reserve(sampled ? kDistinctSampleRows : n);
  for (size_t c = 0; c < num_cols; ++c) {
    values.clear();
    if (sampled) {
      for (const auto& [seg, row] : sample) {
        values.push_back(static_cast<uint64_t>(seg->col(c)[row]));
      }
      stats.columns[c].num_distinct = SampledDistinct(n, values);
    } else {
      for (const IdTable* seg : segments) {
        if (seg->num_rows() == 0) continue;
        for (int64_t v : seg->col(c)) {
          values.push_back(static_cast<uint64_t>(v));
        }
      }
      std::unordered_set<uint64_t> distinct(values.begin(), values.end());
      stats.columns[c].num_distinct = distinct.size();
    }
  }
  return stats;
}

}  // namespace tuffy
