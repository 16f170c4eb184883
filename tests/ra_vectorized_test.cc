// Equivalence of the columnar batch executor against the Volcano
// interpreter: same rows in the same order on every join shape the MLN
// frontend emits, and bit-identical grounding output on the RC example
// (which exercises self-joins, cross products, pushed-down residual
// predicates, and an existential binding literal).

#include <gtest/gtest.h>

#include <vector>

#include "datagen/datasets.h"
#include "ground/bottom_up_grounder.h"
#include "ra/catalog.h"
#include "ra/expr.h"
#include "ra/operators.h"
#include "ra/optimizer.h"
#include "ra/vec_ops.h"
#include "util/rng.h"

namespace tuffy {
namespace {

Table MakeIdTable(const std::string& name, int num_rows, int mod,
                  uint64_t seed = 1) {
  Table t(name, Schema({{"a", ColumnType::kInt64}, {"b", ColumnType::kInt64}}));
  Rng rng(seed);
  for (int i = 0; i < num_rows; ++i) {
    t.Append({Datum(static_cast<int64_t>(rng.Uniform(mod))),
              Datum(static_cast<int64_t>(rng.Uniform(mod)))});
  }
  t.Analyze();
  return t;
}

using RowsInt = std::vector<std::vector<int64_t>>;

RowsInt MaterializeVolcano(PhysicalOp* root) {
  RowsInt out;
  EXPECT_TRUE(root->Open().ok());
  Row row;
  while (true) {
    auto has = root->Next(&row);
    EXPECT_TRUE(has.ok());
    if (!has.value()) break;
    std::vector<int64_t> vals;
    for (const Datum& d : row) vals.push_back(d.int64());
    out.push_back(std::move(vals));
  }
  root->Close();
  return out;
}

RowsInt MaterializeVec(VecOp* root) {
  RowsInt out;
  Status st = ForEachChunk(root, [&](const ColumnChunk& chunk) {
    EXPECT_GT(chunk.num_rows, 0u);  // emitted chunks are never empty
    for (uint32_t r = 0; r < chunk.num_rows; ++r) {
      std::vector<int64_t> vals;
      for (size_t c = 0; c < chunk.num_cols(); ++c) {
        vals.push_back(chunk.col(c)[r]);
      }
      out.push_back(std::move(vals));
    }
    return Status::OK();
  });
  EXPECT_TRUE(st.ok());
  return out;
}

/// Plans `query` and checks the batch plan exists and produces exactly
/// the Volcano plan's rows, in the Volcano plan's order.
void ExpectPlansAgree(ConjunctiveQuery query) {
  Optimizer optimizer{OptimizerOptions{}};
  auto plan = optimizer.Plan(std::move(query));
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(plan.value().vectorized()) << plan.value().explain;
  RowsInt volcano = MaterializeVolcano(plan.value().root.get());
  RowsInt vec = MaterializeVec(plan.value().vec_root.get());
  EXPECT_EQ(volcano, vec);
}

TEST(VecPlanTest, SingleTableScanWithConstFilter) {
  Table t = MakeIdTable("t", 500, 7);
  ConjunctiveQuery q;
  TableRef ref = RefTo(t);
  ref.filter = Eq(Col(0), Val(Datum(int64_t{3})));
  q.tables.push_back(std::move(ref));
  q.outputs.push_back(OutputCol{0, 1, "b"});
  ExpectPlansAgree(std::move(q));
}

TEST(VecPlanTest, RepeatedVariableResidualFilter) {
  // col0 == col1 — the repeated-variable filter the grounding compiler
  // pushes into scans.
  Table t = MakeIdTable("t", 400, 5);
  ConjunctiveQuery q;
  TableRef ref = RefTo(t);
  ref.filter = And([] {
    std::vector<ExprPtr> fs;
    fs.push_back(Eq(Col(0), Col(1)));
    return fs;
  }());
  q.tables.push_back(std::move(ref));
  q.outputs.push_back(OutputCol{0, 0, "a"});
  ExpectPlansAgree(std::move(q));
}

TEST(VecPlanTest, SingleKeyHashJoin) {
  Table t1 = MakeIdTable("t1", 300, 11, 1);
  Table t2 = MakeIdTable("t2", 200, 11, 2);
  ConjunctiveQuery q;
  q.tables.push_back(RefTo(t1));
  q.tables.push_back(RefTo(t2));
  q.joins.push_back(JoinCondition{0, 1, 1, 0});
  q.outputs.push_back(OutputCol{0, 0, "x"});
  q.outputs.push_back(OutputCol{1, 1, "y"});
  ExpectPlansAgree(std::move(q));
}

TEST(VecPlanTest, SelfJoin) {
  Table t = MakeIdTable("t", 250, 9);
  ConjunctiveQuery q;
  q.tables.push_back(RefTo(t));
  q.tables.push_back(RefTo(t));
  q.joins.push_back(JoinCondition{0, 0, 1, 0});
  q.outputs.push_back(OutputCol{0, 1, "lb"});
  q.outputs.push_back(OutputCol{1, 1, "rb"});
  ExpectPlansAgree(std::move(q));
}

TEST(VecPlanTest, DualKeyPackedJoin) {
  Table t1 = MakeIdTable("t1", 300, 6, 3);
  Table t2 = MakeIdTable("t2", 300, 6, 4);
  ConjunctiveQuery q;
  q.tables.push_back(RefTo(t1));
  q.tables.push_back(RefTo(t2));
  q.joins.push_back(JoinCondition{0, 0, 1, 0});
  q.joins.push_back(JoinCondition{0, 1, 1, 1});
  q.outputs.push_back(OutputCol{0, 0, "a"});
  q.outputs.push_back(OutputCol{1, 1, "b"});
  ExpectPlansAgree(std::move(q));
}

TEST(VecPlanTest, CrossProduct) {
  Table t1 = MakeIdTable("t1", 40, 5, 5);
  Table t2 = MakeIdTable("t2", 60, 5, 6);
  ConjunctiveQuery q;
  q.tables.push_back(RefTo(t1));
  q.tables.push_back(RefTo(t2));
  q.outputs.push_back(OutputCol{0, 0, "a"});
  q.outputs.push_back(OutputCol{1, 0, "b"});
  ExpectPlansAgree(std::move(q));
}

TEST(VecPlanTest, ThreeWayJoinMixedShapes) {
  // Join chain plus a disconnected (cross) relation — the general rule
  // shape: binding literals joined on shared variables, a free domain
  // table crossed in.
  Table t1 = MakeIdTable("t1", 120, 8, 7);
  Table t2 = MakeIdTable("t2", 150, 8, 8);
  Table dom("dom", Schema({{"v", ColumnType::kInt64}}));
  for (int i = 0; i < 4; ++i) dom.Append({Datum(int64_t{i})});
  dom.Analyze();
  ConjunctiveQuery q;
  q.tables.push_back(RefTo(t1));
  q.tables.push_back(RefTo(t2));
  q.tables.push_back(RefTo(dom));
  q.joins.push_back(JoinCondition{0, 1, 1, 0});
  q.outputs.push_back(OutputCol{0, 0, "x"});
  q.outputs.push_back(OutputCol{1, 1, "y"});
  q.outputs.push_back(OutputCol{2, 0, "c"});
  ExpectPlansAgree(std::move(q));
}

TEST(VecPlanTest, WideKeyJoinFallsBackToVolcano) {
  Table t1(
      "w1",
      Schema({{"a", ColumnType::kInt64}, {"b", ColumnType::kInt64},
              {"c", ColumnType::kInt64}}));
  Table t2(
      "w2",
      Schema({{"a", ColumnType::kInt64}, {"b", ColumnType::kInt64},
              {"c", ColumnType::kInt64}}));
  for (int i = 0; i < 20; ++i) {
    Row row{Datum(int64_t{i % 3}), Datum(int64_t{i % 4}),
            Datum(int64_t{i % 5})};
    t1.Append(row);
    t2.Append(row);
  }
  t1.Analyze();
  t2.Analyze();
  ConjunctiveQuery q;
  q.tables.push_back(RefTo(t1));
  q.tables.push_back(RefTo(t2));
  for (int c = 0; c < 3; ++c) q.joins.push_back(JoinCondition{0, c, 1, c});
  q.outputs.push_back(OutputCol{0, 0, "a"});
  Optimizer optimizer{OptimizerOptions{}};
  auto plan = optimizer.Plan(std::move(q));
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan.value().vectorized());  // 3 key columns: generic path
  EXPECT_NE(plan.value().root, nullptr);
}

TEST(VecPlanTest, LesionConfigsStayOnVolcano) {
  Table t1 = MakeIdTable("t1", 50, 5);
  Table t2 = MakeIdTable("t2", 50, 5);
  auto make_query = [&] {
    ConjunctiveQuery q;
    q.tables.push_back(RefTo(t1));
    q.tables.push_back(RefTo(t2));
    q.joins.push_back(JoinCondition{0, 0, 1, 0});
    q.outputs.push_back(OutputCol{0, 1, "b"});
    return q;
  };
  OptimizerOptions no_hash;
  no_hash.enable_hash_join = false;
  EXPECT_FALSE(Optimizer(no_hash).Plan(make_query()).value().vectorized());
  OptimizerOptions no_pushdown;
  no_pushdown.disable_predicate_pushdown = true;
  EXPECT_FALSE(
      Optimizer(no_pushdown).Plan(make_query()).value().vectorized());
  OptimizerOptions off;
  off.enable_vectorized = false;
  EXPECT_FALSE(Optimizer(off).Plan(make_query()).value().vectorized());
  EXPECT_TRUE(
      Optimizer(OptimizerOptions{}).Plan(make_query()).value().vectorized());
}

/// Splits `table`'s id view into [0, cut) and [cut, n) segments.
void SplitRows(const Table& table, size_t cut, IdTable* head, IdTable* tail) {
  const IdTable& rows = *table.id_view();
  head->Init(rows.num_cols());
  tail->Init(rows.num_cols());
  std::vector<int64_t> row(rows.num_cols());
  for (size_t r = 0; r < rows.num_rows(); ++r) {
    for (size_t c = 0; c < rows.num_cols(); ++c) row[c] = rows.col(c)[r];
    (r < cut ? head : tail)->AppendRow(row);
  }
}

TEST(VecPlanTest, MultiSegmentRelationScansAsItsConcatenation) {
  // A relation split into segments — with an empty, zero-column one in
  // between, as an empty side table is — joins exactly like the whole
  // relation, in both executors and in the same row order. The split
  // point is off a chunk boundary so chunks end early at the seam.
  Table t1 = MakeIdTable("t1", 3000, 40, 1);
  Table t2 = MakeIdTable("t2", 200, 40, 2);
  IdTable head, empty, tail;
  SplitRows(t1, 1500, &head, &tail);
  const TableStats stats = AnalyzeColumns({&head, &empty, &tail}, 2);
  auto make_query = [&](bool split) {
    ConjunctiveQuery q;
    TableRef ref = RefTo(t1);
    if (split) {
      ref.segments = {&head, &empty, &tail};
      ref.stats = &stats;
    }
    q.tables.push_back(std::move(ref));
    q.tables.push_back(RefTo(t2));
    q.joins.push_back(JoinCondition{0, 1, 1, 0});
    q.outputs.push_back(OutputCol{0, 0, "x"});
    q.outputs.push_back(OutputCol{1, 1, "y"});
    return q;
  };
  ExpectPlansAgree(make_query(true));
  auto whole = Optimizer(OptimizerOptions{}).Plan(make_query(false));
  auto split = Optimizer(OptimizerOptions{}).Plan(make_query(true));
  ASSERT_TRUE(whole.ok());
  ASSERT_TRUE(split.ok());
  EXPECT_EQ(whole.value().join_order, split.value().join_order);
  EXPECT_EQ(MaterializeVec(whole.value().vec_root.get()),
            MaterializeVec(split.value().vec_root.get()));
}

// ------------------------------------------------------ ANALYZE estimate

TEST(AnalyzeTest, SegmentSplitDoesNotChangeStats) {
  // Below and above the sampling threshold, ANALYZE of segments equals
  // ANALYZE of their concatenation (the serving path's two-segment
  // unions must plan like one relation).
  for (int rows : {1000, 20000}) {
    Table t = MakeIdTable("t", rows, rows / 3, rows);
    IdTable head, empty, tail;
    SplitRows(t, static_cast<size_t>(rows) / 3, &head, &tail);
    const TableStats whole = AnalyzeColumns({t.id_view()}, 2);
    const TableStats split = AnalyzeColumns({&head, &empty, &tail}, 2);
    EXPECT_EQ(whole.num_rows, split.num_rows);
    for (size_t c = 0; c < 2; ++c) {
      EXPECT_EQ(whole.columns[c].num_distinct, split.columns[c].num_distinct)
          << rows << " rows, column " << c;
    }
    EXPECT_EQ(whole.columns[0].num_distinct,
              t.stats().columns[0].num_distinct);
  }
}

TEST(AnalyzeTest, SmallTableDistinctIsExact) {
  Table t = MakeIdTable("t", 1000, 37);
  const TableStats& stats = t.Analyze();
  EXPECT_EQ(stats.columns[0].num_distinct, 37u);
}

TEST(AnalyzeTest, LargeTableDistinctIsSampledEstimate) {
  // 50k rows, 1000 distinct values: the sampled GEE estimate must land
  // in the right order of magnitude (the exact scan would, before this
  // change, have dominated ANALYZE time on large relations).
  Table t("big", Schema({{"a", ColumnType::kInt64}}));
  Rng rng(3);
  for (int i = 0; i < 50000; ++i) {
    t.Append({Datum(static_cast<int64_t>(rng.Uniform(1000)))});
  }
  const TableStats& stats = t.Analyze();
  EXPECT_GE(stats.columns[0].num_distinct, 500u);
  EXPECT_LE(stats.columns[0].num_distinct, 5000u);
  // Deterministic across calls (fixed sample seed).
  uint64_t first = stats.columns[0].num_distinct;
  EXPECT_EQ(t.Analyze().columns[0].num_distinct, first);
}

// -------------------------------------------------- grounding equality

/// Bit-identical grounding across executors and thread counts on the RC
/// example (self-join, cross products, residual filters, existential
/// binding literal) and on LP (multi-way joins, dual-key join).
void ExpectGroundingIdentical(const Dataset& ds) {
  auto run = [&](bool vectorized, int threads) {
    GroundingOptions gopts;
    gopts.num_threads = threads;
    OptimizerOptions oopts;
    oopts.enable_vectorized = vectorized;
    BottomUpGrounder g(ds.program, ds.evidence, gopts, oopts);
    auto r = g.Ground();
    EXPECT_TRUE(r.ok());
    return r.TakeValue();
  };
  GroundingResult volcano = run(false, 1);
  GroundingResult vec = run(true, 1);
  GroundingResult vec_mt = run(true, 4);

  auto expect_same = [](const GroundingResult& a, const GroundingResult& b) {
    ASSERT_EQ(a.atoms.num_atoms(), b.atoms.num_atoms());
    for (AtomId i = 0; i < a.atoms.num_atoms(); ++i) {
      ASSERT_TRUE(a.atoms.atom(i) == b.atoms.atom(i)) << "atom " << i;
    }
    ASSERT_EQ(a.clauses.num_clauses(), b.clauses.num_clauses());
    for (size_t i = 0; i < a.clauses.num_clauses(); ++i) {
      const GroundClause& ca = a.clauses.clauses()[i];
      const GroundClause& cb = b.clauses.clauses()[i];
      ASSERT_EQ(ca.lits, cb.lits) << "clause " << i;
      ASSERT_EQ(ca.weight, cb.weight) << "clause " << i;
      ASSERT_EQ(ca.hard, cb.hard) << "clause " << i;
    }
    EXPECT_EQ(a.fixed_cost, b.fixed_cost);
    EXPECT_EQ(a.hard_contradiction, b.hard_contradiction);
    EXPECT_EQ(a.stats.candidates, b.stats.candidates);
  };
  expect_same(volcano, vec);
  expect_same(vec, vec_mt);
}

TEST(VecGroundingTest, RcGroundingBitIdenticalAcrossExecutors) {
  RcParams p;
  p.num_clusters = 12;
  p.papers_per_cluster = 8;
  p.num_categories = 4;
  auto ds = MakeRcDataset(p);
  ASSERT_TRUE(ds.ok());
  ExpectGroundingIdentical(ds.value());
}

TEST(VecGroundingTest, LpGroundingBitIdenticalAcrossExecutors) {
  LpParams p;
  p.num_professors = 5;
  p.num_students = 20;
  p.num_courses = 15;
  p.num_publications = 300;
  auto ds = MakeLpDataset(p);
  ASSERT_TRUE(ds.ok());
  ExpectGroundingIdentical(ds.value());
}

TEST(VecGroundingTest, ExplainAnalyzeReportsOperatorStats) {
  RcParams p;
  p.num_clusters = 3;
  p.papers_per_cluster = 4;
  auto ds = MakeRcDataset(p);
  ASSERT_TRUE(ds.ok());
  GroundingOptions gopts;
  OptimizerOptions oopts;
  oopts.analyze = true;
  BottomUpGrounder g(ds.value().program, ds.value().evidence, gopts, oopts);
  ASSERT_TRUE(g.Ground().ok());
  EXPECT_NE(g.explain().find("analyze rule"), std::string::npos);
  EXPECT_NE(g.explain().find("rows="), std::string::npos);
  EXPECT_NE(g.explain().find("time="), std::string::npos);
  // The vectorized plans report chunk counts too.
  EXPECT_NE(g.explain().find("chunks="), std::string::npos);
}

}  // namespace
}  // namespace tuffy
