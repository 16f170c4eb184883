// Property sweeps for the relational operators against straightforward
// reference implementations (hand-rolled loops, lesion cross-checks) on
// randomized tables.

#include <gtest/gtest.h>

#include <set>

#include "ra/operators.h"
#include "ra/optimizer.h"
#include "util/rng.h"

namespace tuffy {
namespace {

Table RandomTable(const std::string& name, int rows, int cols, int cardinality,
                  uint64_t seed) {
  std::vector<Column> schema_cols;
  for (int c = 0; c < cols; ++c) {
    schema_cols.push_back(
        Column{"c" + std::to_string(c), ColumnType::kInt64});
  }
  Table t(name, Schema(std::move(schema_cols)));
  Rng rng(seed);
  for (int i = 0; i < rows; ++i) {
    Row row;
    for (int c = 0; c < cols; ++c) {
      row.push_back(Datum(static_cast<int64_t>(rng.Uniform(cardinality))));
    }
    t.Append(std::move(row));
  }
  t.Analyze();
  return t;
}

std::vector<std::vector<int64_t>> Collect(PhysicalOp* op) {
  std::vector<std::vector<int64_t>> out;
  EXPECT_TRUE(op->Open().ok());
  Row row;
  while (true) {
    auto has = op->Next(&row);
    EXPECT_TRUE(has.ok());
    if (!has.value()) break;
    std::vector<int64_t> vals;
    for (const Datum& d : row) vals.push_back(d.int64());
    out.push_back(std::move(vals));
  }
  op->Close();
  return out;
}

class RaPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(RaPropertyTest, FilterThenProjectEqualsManualLoop) {
  Table t = RandomTable("t", 150, 3, 6, GetParam() * 3 + 2);
  auto filter = std::make_unique<FilterOp>(
      std::make_unique<SeqScanOp>(RefTo(t)),
      Cmp(CompareOp::kLt, Col(0), Col(1)));
  ProjectOp project(std::move(filter), {2, 0});
  auto got = Collect(&project);

  std::vector<std::vector<int64_t>> expected;
  for (const Row& r : t.rows()) {
    if (r[0].int64() < r[1].int64()) {
      expected.push_back({r[2].int64(), r[0].int64()});
    }
  }
  EXPECT_EQ(got, expected);  // operators preserve scan order
}

TEST_P(RaPropertyTest, ThreeWayJoinPlansAgreeAcrossAllLesions) {
  // Random 3-table chain query executed under every optimizer
  // configuration; results must coincide as multisets.
  int seed = GetParam();
  Table t1 = RandomTable("t1", 40, 2, 6, seed * 101 + 1);
  Table t2 = RandomTable("t2", 35, 2, 6, seed * 101 + 2);
  Table t3 = RandomTable("t3", 30, 2, 6, seed * 101 + 3);

  auto make_query = [&]() {
    ConjunctiveQuery q;
    q.tables.push_back(RefTo(t1));
    q.tables.push_back(RefTo(t2));
    q.tables.push_back(RefTo(t3));
    q.joins.push_back(JoinCondition{0, 1, 1, 0});
    q.joins.push_back(JoinCondition{1, 1, 2, 0});
    q.outputs.push_back(OutputCol{0, 0, "a"});
    q.outputs.push_back(OutputCol{1, 1, "b"});
    q.outputs.push_back(OutputCol{2, 1, "c"});
    return q;
  };

  std::multiset<std::vector<int64_t>> reference;
  bool first = true;
  for (int config = 0; config < 8; ++config) {
    OptimizerOptions opts;
    opts.enable_hash_join = (config & 1) != 0;
    opts.enable_merge_join = (config & 2) != 0;
    opts.fixed_join_order = (config & 4) != 0;
    Optimizer optimizer(opts);
    auto plan = optimizer.Plan(make_query());
    ASSERT_TRUE(plan.ok());
    auto rows = Collect(plan.value().root.get());
    std::multiset<std::vector<int64_t>> got(rows.begin(), rows.end());
    if (first) {
      reference = std::move(got);
      first = false;
    } else {
      EXPECT_EQ(got, reference) << "config " << config;
    }
  }
  EXPECT_FALSE(first);
}

TEST_P(RaPropertyTest, RowsProducedCountersConsistent) {
  Table t = RandomTable("t", 120, 2, 4, GetParam() * 5 + 9);
  auto scan = std::make_unique<SeqScanOp>(RefTo(t));
  SeqScanOp* scan_raw = scan.get();
  FilterOp filter(std::move(scan), Eq(Col(0), Val(Datum(int64_t{1}))));
  auto rows = Collect(&filter);
  EXPECT_EQ(scan_raw->rows_produced(), t.num_rows());
  EXPECT_EQ(filter.rows_produced(), rows.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RaPropertyTest, ::testing::Range(1, 7));

}  // namespace
}  // namespace tuffy
