#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "ra/catalog.h"
#include "ra/datum.h"
#include "ra/expr.h"
#include "ra/operators.h"
#include "ra/optimizer.h"
#include "util/rng.h"

namespace tuffy {
namespace {

// ------------------------------------------------------------------ Datum

TEST(DatumTest, TypePredicates) {
  EXPECT_TRUE(Datum().is_null());
  EXPECT_TRUE(Datum(int64_t{5}).is_int64());
  EXPECT_TRUE(Datum(1.5).is_double());
  EXPECT_TRUE(Datum("x").is_string());
  EXPECT_TRUE(Datum(true).is_bool());
}

TEST(DatumTest, EqualityIsTypeAware) {
  EXPECT_EQ(Datum(int64_t{1}), Datum(int64_t{1}));
  EXPECT_NE(Datum(int64_t{1}), Datum(1.0));
  EXPECT_NE(Datum(int64_t{0}), Datum(std::string("0")));
  EXPECT_EQ(Datum(), Datum());
}

TEST(DatumTest, OrderingWithinType) {
  EXPECT_LT(Datum(int64_t{1}), Datum(int64_t{2}));
  EXPECT_LT(Datum(std::string("a")), Datum(std::string("b")));
}

TEST(DatumTest, HashDistinguishesTypes) {
  EXPECT_NE(Datum(int64_t{0}).Hash(), Datum(std::string("0")).Hash());
  EXPECT_EQ(Datum(int64_t{7}).Hash(), Datum(int64_t{7}).Hash());
}

TEST(DatumTest, ToStringRenders) {
  EXPECT_EQ(Datum().ToString(), "NULL");
  EXPECT_EQ(Datum(int64_t{3}).ToString(), "3");
  EXPECT_EQ(Datum("ab").ToString(), "'ab'");
  EXPECT_EQ(Datum(true).ToString(), "true");
}

// ------------------------------------------------------------------ Table

Table MakeTable(const std::string& name, int num_rows, int mod) {
  Table t(name, Schema({{"a", ColumnType::kInt64}, {"b", ColumnType::kInt64}}));
  for (int i = 0; i < num_rows; ++i) {
    t.Append({Datum(int64_t{i}), Datum(int64_t{i % mod})});
  }
  t.Analyze();
  return t;
}

TEST(TableTest, AnalyzeCountsDistinct) {
  Table t = MakeTable("t", 20, 5);
  EXPECT_EQ(t.stats().num_rows, 20u);
  EXPECT_EQ(t.stats().columns[0].num_distinct, 20u);
  EXPECT_EQ(t.stats().columns[1].num_distinct, 5u);
}

TEST(TableTest, AppendCheckedRejectsBadArityAndType) {
  Table t("t", Schema({{"a", ColumnType::kInt64}}));
  EXPECT_FALSE(t.AppendChecked({Datum(int64_t{1}), Datum(int64_t{2})}).ok());
  EXPECT_FALSE(t.AppendChecked({Datum("str")}).ok());
  EXPECT_TRUE(t.AppendChecked({Datum(int64_t{1})}).ok());
  EXPECT_TRUE(t.AppendChecked({Datum()}).ok());  // NULL always allowed
}

TEST(CatalogTest, CreateGetDrop) {
  Catalog cat;
  ASSERT_TRUE(cat.CreateTable("t", Schema({{"a", ColumnType::kInt64}})).ok());
  EXPECT_FALSE(cat.CreateTable("t", Schema()).ok());
  EXPECT_TRUE(cat.GetTable("t").ok());
  EXPECT_FALSE(cat.GetTable("missing").ok());
  EXPECT_TRUE(cat.DropTable("t").ok());
  EXPECT_FALSE(cat.GetTable("t").ok());
}

// ------------------------------------------------------------------- Expr

TEST(ExprTest, ComparisonsEvaluate) {
  Row row = {Datum(int64_t{5}), Datum(int64_t{7})};
  EXPECT_TRUE(Eq(Col(0), Val(Datum(int64_t{5})))->EvalBool(row));
  EXPECT_FALSE(Eq(Col(0), Col(1))->EvalBool(row));
  EXPECT_TRUE(Ne(Col(0), Col(1))->EvalBool(row));
  EXPECT_TRUE(Cmp(CompareOp::kLt, Col(0), Col(1))->EvalBool(row));
  EXPECT_TRUE(Cmp(CompareOp::kLe, Col(0), Col(0))->EvalBool(row));
  EXPECT_TRUE(Cmp(CompareOp::kGt, Col(1), Col(0))->EvalBool(row));
  EXPECT_TRUE(Cmp(CompareOp::kGe, Col(1), Col(1))->EvalBool(row));
}

TEST(ExprTest, NullComparesUnequal) {
  Row row = {Datum(), Datum(int64_t{1})};
  EXPECT_FALSE(Eq(Col(0), Col(1))->EvalBool(row));
  EXPECT_FALSE(Eq(Col(0), Col(0))->EvalBool(row));
  EXPECT_TRUE(Ne(Col(0), Col(1))->EvalBool(row));
}

TEST(ExprTest, BooleanConnectives) {
  Row row = {Datum(int64_t{1})};
  std::vector<ExprPtr> both;
  both.push_back(Eq(Col(0), Val(Datum(int64_t{1}))));
  both.push_back(Eq(Col(0), Val(Datum(int64_t{2}))));
  EXPECT_FALSE(And(std::move(both))->EvalBool(row));
  std::vector<ExprPtr> either;
  either.push_back(Eq(Col(0), Val(Datum(int64_t{1}))));
  either.push_back(Eq(Col(0), Val(Datum(int64_t{2}))));
  EXPECT_TRUE(Or(std::move(either))->EvalBool(row));
  EXPECT_FALSE(Not(Eq(Col(0), Val(Datum(int64_t{1}))))->EvalBool(row));
  EXPECT_TRUE(And({})->EvalBool(row));
  EXPECT_FALSE(Or({})->EvalBool(row));
}

TEST(ExprTest, ShiftExprEvaluatesSlice) {
  // Row = [9, 5, 7]; shifted predicate over [5, 7] checks $0 = 5.
  Row row = {Datum(int64_t{9}), Datum(int64_t{5}), Datum(int64_t{7})};
  ShiftExpr shifted(Eq(Col(0), Val(Datum(int64_t{5}))), 1, 2);
  EXPECT_TRUE(shifted.EvalBool(row));
}

// -------------------------------------------------------------- Operators

std::multiset<std::vector<int64_t>> Materialize(PhysicalOp* op) {
  std::multiset<std::vector<int64_t>> out;
  EXPECT_TRUE(op->Open().ok());
  Row row;
  while (true) {
    auto has = op->Next(&row);
    EXPECT_TRUE(has.ok());
    if (!has.value()) break;
    std::vector<int64_t> vals;
    for (const Datum& d : row) vals.push_back(d.int64());
    out.insert(vals);
  }
  op->Close();
  return out;
}

TEST(OperatorsTest, SeqScanEmitsAllRows) {
  Table t = MakeTable("t", 5, 3);
  SeqScanOp scan(RefTo(t));
  EXPECT_EQ(Materialize(&scan).size(), 5u);
}

TEST(OperatorsTest, FilterKeepsMatching) {
  Table t = MakeTable("t", 10, 2);
  FilterOp filter(std::make_unique<SeqScanOp>(RefTo(t)),
                  Eq(Col(1), Val(Datum(int64_t{0}))));
  EXPECT_EQ(Materialize(&filter).size(), 5u);
}

TEST(OperatorsTest, ProjectSelectsColumns) {
  Table t = MakeTable("t", 4, 2);
  ProjectOp proj(std::make_unique<SeqScanOp>(RefTo(t)), {1});
  auto rows = Materialize(&proj);
  EXPECT_EQ(rows.size(), 4u);
  for (const auto& r : rows) EXPECT_EQ(r.size(), 1u);
  EXPECT_EQ(proj.output_schema().num_columns(), 1u);
}

// Parameterized join-equivalence property: all three join algorithms must
// produce exactly the brute-force result on random tables.
enum class JoinAlgo { kNested, kHash, kMerge };

class JoinEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<JoinAlgo, int>> {};

/// Test-local row source: emits a Table's Datum rows as stored, NULLs
/// included — rows no columnar scan can carry — so the join algorithms
/// are exercised on their own.
class RowsOp final : public PhysicalOp {
 public:
  explicit RowsOp(const Table* table) : table_(table) {}

  Status Open() override {
    pos_ = 0;
    return Status::OK();
  }
  Result<bool> Next(Row* out) override {
    if (pos_ >= table_->num_rows()) return false;
    *out = table_->row(pos_++);
    return true;
  }
  void Close() override {}
  const Schema& output_schema() const override { return table_->schema(); }
  std::string name() const override { return "Rows(" + table_->name() + ")"; }

 private:
  const Table* table_;
  size_t pos_ = 0;
};

PhysicalOpPtr MakeJoin(JoinAlgo algo, const Table* l, const Table* r,
                       std::vector<JoinKey> keys) {
  auto ls = std::make_unique<RowsOp>(l);
  auto rs = std::make_unique<RowsOp>(r);
  switch (algo) {
    case JoinAlgo::kNested:
      return std::make_unique<NestedLoopJoinOp>(std::move(ls), std::move(rs),
                                                std::move(keys));
    case JoinAlgo::kHash:
      return std::make_unique<HashJoinOp>(std::move(ls), std::move(rs),
                                          std::move(keys));
    case JoinAlgo::kMerge:
      return std::make_unique<SortMergeJoinOp>(std::move(ls), std::move(rs),
                                               std::move(keys));
  }
  return nullptr;
}

TEST_P(JoinEquivalenceTest, MatchesBruteForce) {
  auto [algo, seed] = GetParam();
  Rng rng(seed);
  Table l("l", Schema({{"a", ColumnType::kInt64}, {"b", ColumnType::kInt64}}));
  Table r("r", Schema({{"c", ColumnType::kInt64}, {"d", ColumnType::kInt64}}));
  int ln = 5 + static_cast<int>(rng.Uniform(40));
  int rn = 5 + static_cast<int>(rng.Uniform(40));
  for (int i = 0; i < ln; ++i) {
    l.Append({Datum(static_cast<int64_t>(rng.Uniform(8))),
              Datum(static_cast<int64_t>(rng.Uniform(5)))});
  }
  for (int i = 0; i < rn; ++i) {
    r.Append({Datum(static_cast<int64_t>(rng.Uniform(8))),
              Datum(static_cast<int64_t>(rng.Uniform(5)))});
  }

  // Brute force: join on l.a = r.c.
  std::multiset<std::vector<int64_t>> expected;
  for (const Row& lr : l.rows()) {
    for (const Row& rr : r.rows()) {
      if (lr[0] == rr[0]) {
        expected.insert({lr[0].int64(), lr[1].int64(), rr[0].int64(),
                         rr[1].int64()});
      }
    }
  }

  PhysicalOpPtr join = MakeJoin(algo, &l, &r, {JoinKey{0, 0}});
  EXPECT_EQ(Materialize(join.get()), expected);
}

INSTANTIATE_TEST_SUITE_P(
    AlgosAndSeeds, JoinEquivalenceTest,
    ::testing::Combine(::testing::Values(JoinAlgo::kNested, JoinAlgo::kHash,
                                         JoinAlgo::kMerge),
                       ::testing::Values(1, 2, 3, 4, 5)));

TEST(JoinTest, MultiKeyJoin) {
  Table l("l", Schema({{"a", ColumnType::kInt64}, {"b", ColumnType::kInt64}}));
  Table r("r", Schema({{"c", ColumnType::kInt64}, {"d", ColumnType::kInt64}}));
  l.Append({Datum(int64_t{1}), Datum(int64_t{2})});
  l.Append({Datum(int64_t{1}), Datum(int64_t{3})});
  r.Append({Datum(int64_t{1}), Datum(int64_t{2})});
  auto join = MakeJoin(JoinAlgo::kHash, &l, &r, {{0, 0}, {1, 1}});
  EXPECT_EQ(Materialize(join.get()).size(), 1u);
}

TEST(JoinTest, NullKeysNeverMatch) {
  Table l("l", Schema({{"a", ColumnType::kInt64}}));
  Table r("r", Schema({{"b", ColumnType::kInt64}}));
  l.Append({Datum()});
  r.Append({Datum()});
  for (JoinAlgo algo : {JoinAlgo::kNested, JoinAlgo::kHash, JoinAlgo::kMerge}) {
    auto join = MakeJoin(algo, &l, &r, {{0, 0}});
    EXPECT_EQ(Materialize(join.get()).size(), 0u);
  }
}

// -------------------------------------------------------------- Optimizer

ConjunctiveQuery MakeTriangleQuery(const Table* t1, const Table* t2,
                                   const Table* t3) {
  // SELECT ... FROM t1, t2, t3 WHERE t1.b = t2.a AND t2.b = t3.a
  ConjunctiveQuery q;
  q.tables.push_back(RefTo(*t1));
  q.tables.push_back(RefTo(*t2));
  q.tables.push_back(RefTo(*t3));
  q.joins.push_back(JoinCondition{0, 1, 1, 0});
  q.joins.push_back(JoinCondition{1, 1, 2, 0});
  q.outputs.push_back(OutputCol{0, 0, "x"});
  q.outputs.push_back(OutputCol{2, 1, "y"});
  return q;
}

std::multiset<std::vector<int64_t>> BruteForceTriangle(const Table& t1,
                                                       const Table& t2,
                                                       const Table& t3) {
  std::multiset<std::vector<int64_t>> out;
  for (const Row& a : t1.rows()) {
    for (const Row& b : t2.rows()) {
      if (!(a[1] == b[0])) continue;
      for (const Row& c : t3.rows()) {
        if (!(b[1] == c[0])) continue;
        out.insert({a[0].int64(), c[1].int64()});
      }
    }
  }
  return out;
}

class OptimizerLesionTest : public ::testing::TestWithParam<int> {};

TEST_P(OptimizerLesionTest, AllConfigurationsGiveSameAnswer) {
  int config = GetParam();
  Table t1 = MakeTable("t1", 30, 7);
  Table t2 = MakeTable("t2", 25, 7);
  Table t3 = MakeTable("t3", 20, 7);
  auto expected = BruteForceTriangle(t1, t2, t3);

  OptimizerOptions opts;
  opts.enable_hash_join = (config & 1) != 0;
  opts.enable_merge_join = (config & 2) != 0;
  opts.fixed_join_order = (config & 4) != 0;
  Optimizer optimizer(opts);
  auto plan = optimizer.Plan(MakeTriangleQuery(&t1, &t2, &t3));
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(Materialize(plan.value().root.get()), expected);
}

INSTANTIATE_TEST_SUITE_P(Configs, OptimizerLesionTest,
                         ::testing::Range(0, 8));

TEST(OptimizerTest, PushdownAndHoistedFiltersAgree) {
  Table t1 = MakeTable("t1", 30, 5);
  Table t2 = MakeTable("t2", 30, 5);
  auto make_query = [&]() {
    ConjunctiveQuery q;
    TableRef r1 = RefTo(t1);
    r1.filter = Eq(Col(1), Val(Datum(int64_t{2})));
    r1.selectivity = 0.2;
    q.tables.push_back(std::move(r1));
    q.tables.push_back(RefTo(t2));
    q.joins.push_back(JoinCondition{0, 1, 1, 1});
    q.outputs.push_back(OutputCol{0, 0, "x"});
    q.outputs.push_back(OutputCol{1, 0, "y"});
    return q;
  };
  Optimizer pushdown{OptimizerOptions{}};
  OptimizerOptions no_pd;
  no_pd.disable_predicate_pushdown = true;
  Optimizer hoisted{no_pd};
  auto p1 = pushdown.Plan(make_query());
  auto p2 = hoisted.Plan(make_query());
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(Materialize(p1.value().root.get()),
            Materialize(p2.value().root.get()));
}

TEST(OptimizerTest, GreedyOrderStartsFromSmallestRelation) {
  Table big = MakeTable("big", 1000, 10);
  Table small = MakeTable("small", 3, 3);
  ConjunctiveQuery q;
  q.tables.push_back(RefTo(big));
  q.tables.push_back(RefTo(small));
  q.joins.push_back(JoinCondition{0, 1, 1, 1});
  q.outputs.push_back(OutputCol{0, 0, "x"});
  Optimizer optimizer{OptimizerOptions{}};
  auto plan = optimizer.Plan(std::move(q));
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().join_order[0], 1);  // small first
}

TEST(OptimizerTest, FixedOrderKeepsDeclarationOrder) {
  Table big = MakeTable("big", 1000, 10);
  Table small = MakeTable("small", 3, 3);
  ConjunctiveQuery q;
  q.tables.push_back(RefTo(big));
  q.tables.push_back(RefTo(small));
  q.joins.push_back(JoinCondition{0, 1, 1, 1});
  q.outputs.push_back(OutputCol{0, 0, "x"});
  OptimizerOptions opts;
  opts.fixed_join_order = true;
  Optimizer optimizer(opts);
  auto plan = optimizer.Plan(std::move(q));
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().join_order[0], 0);
}

TEST(OptimizerTest, SingleTableQueryWorks) {
  Table t = MakeTable("t", 10, 2);
  ConjunctiveQuery q;
  TableRef ref = RefTo(t);
  ref.filter = Eq(Col(1), Val(Datum(int64_t{1})));
  ref.selectivity = 0.5;
  q.tables.push_back(std::move(ref));
  q.outputs.push_back(OutputCol{0, 0, "a"});
  Optimizer optimizer{OptimizerOptions{}};
  auto plan = optimizer.Plan(std::move(q));
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(Materialize(plan.value().root.get()).size(), 5u);
}

TEST(OptimizerTest, EmptyQueryRejected) {
  Optimizer optimizer{OptimizerOptions{}};
  EXPECT_FALSE(optimizer.Plan(ConjunctiveQuery{}).ok());
}

TEST(OptimizerTest, CardinalityEstimateScalesWithJoins) {
  Table t1 = MakeTable("t1", 100, 10);
  Table t2 = MakeTable("t2", 100, 10);
  ConjunctiveQuery q;
  q.tables.push_back(RefTo(t1));
  q.tables.push_back(RefTo(t2));
  Optimizer optimizer{OptimizerOptions{}};
  double cross = optimizer.EstimateCardinality(q);
  q.joins.push_back(JoinCondition{0, 0, 1, 0});
  double joined = optimizer.EstimateCardinality(q);
  EXPECT_GT(cross, joined);
  EXPECT_NEAR(cross, 10000.0, 1.0);
  EXPECT_NEAR(joined, 100.0, 1.0);
}

}  // namespace
}  // namespace tuffy
