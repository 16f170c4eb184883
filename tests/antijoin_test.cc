// Anti-join evidence pruning and the per-predicate evidence relations:
//
// 1. RA level: AntiJoinOp and VecAntiJoinOp drop exactly the same rows
//    in the same order on every key shape the grounding compiler emits
//    (single/dual variable keys, constants, repeated variables, ground
//    literals).
// 2. Grounding level: plan-level pruning versus unpruned resolution is
//    bit-identical on the RC and LP generators — same atoms, same
//    clauses, same order, same fixed cost — while resolving strictly
//    fewer rows.
// 3. Evidence relations: EvidenceDb's rows hold exactly its map's
//    entries after any add / overwrite / retract sequence, and a copy's
//    rows are its own.
// 4. Serving: per-delta table maintenance materializes only the
//    delta's rows — growing an untouched predicate's evidence, or the
//    touched closed-world relation itself, leaves the per-delta
//    maintenance row count unchanged (binding literals scan the
//    evidence relations in place).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "datagen/datasets.h"
#include "ground/bottom_up_grounder.h"
#include "mln/parser.h"
#include "ra/operators.h"
#include "ra/optimizer.h"
#include "ra/vec_ops.h"
#include "serve/delta_grounder.h"
#include "util/rng.h"

namespace tuffy {
namespace {

using RowsInt = std::vector<std::vector<int64_t>>;

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

IdTable MakeBuildTable(size_t num_cols, const RowsInt& rows) {
  IdTable t;
  t.Init(num_cols);
  for (const auto& row : rows) t.AppendRow(row);
  return t;
}

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

/// Plans a one-table query with `ref` attached and checks that (a) both
/// executors agree row for row, and (b) the surviving set is exactly the
/// brute-force anti-join semantics. `num_cols` is the probe table's
/// column count (all columns become outputs).
void ExpectAntiJoinAgrees(const Table& probe, AntiJoinRef ref,
                          size_t num_cols = 2) {
  auto make_query = [&] {
    ConjunctiveQuery q;
    q.tables.push_back(RefTo(probe));
    for (size_t c = 0; c < num_cols; ++c) {
      q.outputs.push_back(OutputCol{0, static_cast<int>(c), "x"});
    }
    q.anti_joins.push_back(ref);
    return q;
  };
  Optimizer optimizer{OptimizerOptions{}};
  auto plan = optimizer.Plan(make_query());
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(plan.value().vectorized()) << plan.value().explain;
  RowsInt volcano = MaterializeVolcano(plan.value().root.get());
  RowsInt vec = MaterializeVec(plan.value().vec_root.get());
  EXPECT_EQ(volcano, vec);

  // Brute force: drop a probe row iff some build row matches every term.
  RowsInt expect;
  for (const Row& r : probe.rows()) {
    std::vector<int64_t> vals;
    for (size_t c = 0; c < num_cols; ++c) vals.push_back(r[c].int64());
    bool matched = false;
    for (size_t b = 0; b < ref.build->num_rows() && !matched; ++b) {
      bool all = true;
      for (size_t i = 0; i < ref.terms.size(); ++i) {
        const int64_t want = ref.terms[i].probe_col < 0
                                 ? ref.terms[i].constant
                                 : vals[ref.terms[i].probe_col];
        if (ref.build->col(i)[b] != want) all = false;
      }
      matched = all;
    }
    if (!matched) expect.push_back(std::move(vals));
  }
  EXPECT_EQ(volcano, expect);
}

TEST(AntiJoinOpTest, SingleKey) {
  Table probe = MakeIdTable("t", 300, 9, 1);
  AntiJoinRef ref;
  IdTable build = MakeBuildTable(1, {{2}, {5}, {7}});
  ref.build = &build;
  ref.terms.push_back(AntiJoinTerm{0, 0});
  ref.label = "single";
  ExpectAntiJoinAgrees(probe, ref);
}

TEST(AntiJoinOpTest, DualKey) {
  Table probe = MakeIdTable("t", 400, 5, 2);
  RowsInt rows;
  for (int a = 0; a < 5; ++a) rows.push_back({a, (a + 1) % 5});
  IdTable build = MakeBuildTable(2, rows);
  AntiJoinRef ref;
  ref.build = &build;
  ref.terms.push_back(AntiJoinTerm{0, 0});
  ref.terms.push_back(AntiJoinTerm{1, 0});
  ref.label = "dual";
  ExpectAntiJoinAgrees(probe, ref);
}

TEST(AntiJoinOpTest, ConstantAndRepeatedVariableTerms) {
  Table probe = MakeIdTable("t", 400, 6, 3);
  // Literal shape p(3, x, x): constant first position, one variable in
  // two positions. Build rows that violate the repetition or the
  // constant must not prune anything.
  RowsInt rows = {{3, 2, 2}, {3, 4, 1}, {1, 5, 5}};
  IdTable build = MakeBuildTable(3, rows);
  AntiJoinRef ref;
  ref.build = &build;
  ref.terms.push_back(AntiJoinTerm{-1, 3});
  ref.terms.push_back(AntiJoinTerm{1, 0});
  ref.terms.push_back(AntiJoinTerm{1, 0});
  ref.label = "const_rep";
  ExpectAntiJoinAgrees(probe, ref);
}

TEST(AntiJoinOpTest, GroundLiteralMatchAllPrunesEverything) {
  Table probe = MakeIdTable("t", 50, 4, 4);
  IdTable build = MakeBuildTable(2, {{1, 2}});
  AntiJoinRef ref;
  ref.build = &build;
  ref.terms.push_back(AntiJoinTerm{-1, 1});
  ref.terms.push_back(AntiJoinTerm{-1, 2});
  ref.label = "ground";
  ExpectAntiJoinAgrees(probe, ref);

  // And the positive control: a ground literal absent from the build
  // side prunes nothing.
  AntiJoinRef miss = ref;
  miss.terms[1].constant = 3;
  IdTable build2 = MakeBuildTable(2, {{1, 2}});
  miss.build = &build2;
  ExpectAntiJoinAgrees(probe, miss);
}

/// An N-column probe table with values in [0, mod).
Table MakeWideProbe(int num_cols, int num_rows, int mod, uint64_t seed) {
  std::vector<Column> cols;
  for (int c = 0; c < num_cols; ++c) {
    cols.push_back(Column{std::string(1, static_cast<char>('a' + c)),
                          ColumnType::kInt64});
  }
  Table t("w", Schema(cols));
  Rng rng(seed);
  for (int i = 0; i < num_rows; ++i) {
    Row row;
    for (int c = 0; c < num_cols; ++c) {
      row.push_back(Datum(static_cast<int64_t>(rng.Uniform(mod))));
    }
    t.Append(row);
  }
  t.Analyze();
  return t;
}

TEST(AntiJoinOpTest, TripleKeyPacksInto128Bits) {
  Table probe = MakeWideProbe(3, 500, 4, 7);
  RowsInt rows;
  for (int a = 0; a < 4; ++a) rows.push_back({a, (a + 1) % 4, (a + 2) % 4});
  IdTable build = MakeBuildTable(3, rows);
  AntiJoinRef ref;
  ref.build = &build;
  for (int c = 0; c < 3; ++c) ref.terms.push_back(AntiJoinTerm{c, 0});
  ref.label = "triple";
  ExpectAntiJoinAgrees(probe, ref, 3);
}

TEST(AntiJoinOpTest, QuadKeyPacksInto128Bits) {
  Table probe = MakeWideProbe(4, 600, 3, 8);
  RowsInt rows;
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 3; ++b) rows.push_back({a, b, (a + b) % 3, a});
  }
  IdTable build = MakeBuildTable(4, rows);
  AntiJoinRef ref;
  ref.build = &build;
  for (int c = 0; c < 4; ++c) ref.terms.push_back(AntiJoinTerm{c, 0});
  ref.label = "quad";
  ExpectAntiJoinAgrees(probe, ref, 4);
}

TEST(AntiJoinOpTest, QuadKeyWithConstantAndWideValues) {
  // Four probe columns plus a constant term, with values near the top of
  // the narrow range: the 32-bit halves must not collide or truncate.
  const int64_t big = (int64_t{1} << 31) - 3;
  Table probe = MakeWideProbe(4, 64, 2, 9);
  // Rewrite column c so some rows carry `big`-scale values.
  Table shifted("w", Schema({{"a", ColumnType::kInt64},
                             {"b", ColumnType::kInt64},
                             {"c", ColumnType::kInt64},
                             {"d", ColumnType::kInt64}}));
  for (const Row& r : probe.rows()) {
    shifted.Append({Datum(r[0].int64() == 0 ? int64_t{0} : big),
                    Datum(r[1].int64()), Datum(r[2].int64() + big - 1),
                    Datum(r[3].int64())});
  }
  shifted.Analyze();
  IdTable build = MakeBuildTable(5, {{1, big, 0, big - 1, 1},
                                     {1, 0, 1, big, 0}});
  AntiJoinRef ref;
  ref.build = &build;
  ref.terms.push_back(AntiJoinTerm{-1, 1});  // constant column
  for (int c = 0; c < 4; ++c) ref.terms.push_back(AntiJoinTerm{c, 0});
  ref.label = "quad_const";
  ExpectAntiJoinAgrees(shifted, ref, 4);
}

TEST(AntiJoinOpTest, FiveKeyFallsBackToVolcano) {
  Table probe = MakeWideProbe(5, 30, 3, 10);
  RowsInt rows = {{0, 1, 2, 0, 1}};
  IdTable build = MakeBuildTable(5, rows);
  ConjunctiveQuery q;
  q.tables.push_back(RefTo(probe));
  for (int c = 0; c < 5; ++c) q.outputs.push_back(OutputCol{0, c, "x"});
  AntiJoinRef ref;
  ref.build = &build;
  for (int c = 0; c < 5; ++c) ref.terms.push_back(AntiJoinTerm{c, 0});
  ref.label = "wide";
  q.anti_joins.push_back(std::move(ref));
  auto plan = Optimizer(OptimizerOptions{}).Plan(std::move(q));
  ASSERT_TRUE(plan.ok());
  // Five distinct probe columns exceed even the 128-bit packed-key
  // layout: the whole query stays on the Volcano operators so both
  // translations would prune identically.
  EXPECT_FALSE(plan.value().vectorized());
  RowsInt rows_out = MaterializeVolcano(plan.value().root.get());
  for (const auto& r : rows_out) {
    EXPECT_FALSE(r[0] == 0 && r[1] == 1 && r[2] == 2 && r[3] == 0 &&
                 r[4] == 1);
  }
}

// ------------------------------------------------ grounding equivalence

void ExpectPruningEquivalent(const Dataset& ds, bool expect_pruning) {
  auto run = [&](bool antijoin, bool vectorized) {
    GroundingOptions gopts;
    OptimizerOptions oopts;
    oopts.enable_antijoin_pruning = antijoin;
    oopts.enable_vectorized = vectorized;
    BottomUpGrounder g(ds.program, ds.evidence, gopts, oopts);
    auto r = g.Ground();
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.TakeValue();
  };
  GroundingResult pruned_vec = run(true, true);
  GroundingResult pruned_vol = run(true, false);
  GroundingResult unpruned = run(false, true);

  auto expect_same_store = [](const GroundingResult& a,
                              const GroundingResult& b) {
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
  };
  // The store is bit-identical whether satisfied bindings are pruned in
  // the plan or discarded by resolution, and across executors.
  expect_same_store(pruned_vec, unpruned);
  expect_same_store(pruned_vec, pruned_vol);
  EXPECT_EQ(pruned_vec.stats.candidates, pruned_vol.stats.candidates);

  // Every pruned row is accounted as satisfied-by-evidence, and when the
  // dataset has evidence on prunable literals, pruning must actually
  // fire (LP's query predicate carries no evidence, so its rules have no
  // anti-join build rows — zero pruning is correct there).
  if (expect_pruning) EXPECT_GT(pruned_vec.stats.pruned_by_antijoin, 0u);
  EXPECT_EQ(pruned_vec.stats.candidates + pruned_vec.stats.pruned_by_antijoin,
            unpruned.stats.candidates);
  EXPECT_EQ(pruned_vec.stats.satisfied_by_evidence,
            unpruned.stats.satisfied_by_evidence);
  EXPECT_EQ(unpruned.stats.pruned_by_antijoin, 0u);
}

TEST(AntiJoinGroundingTest, RcStoreBitIdenticalWithFewerRowsResolved) {
  RcParams p;
  p.num_clusters = 10;
  p.papers_per_cluster = 8;
  p.num_categories = 4;
  auto ds = MakeRcDataset(p);
  ASSERT_TRUE(ds.ok());
  ExpectPruningEquivalent(ds.value(), /*expect_pruning=*/true);
}

TEST(AntiJoinGroundingTest, LpStoreBitIdenticalUnderPruningToggle) {
  LpParams p;
  p.num_professors = 5;
  p.num_students = 20;
  p.num_courses = 15;
  p.num_publications = 200;
  auto ds = MakeLpDataset(p);
  ASSERT_TRUE(ds.ok());
  ExpectPruningEquivalent(ds.value(), /*expect_pruning=*/false);
}

TEST(AntiJoinGroundingTest, GroundLiteralMatchAllKeepsAccountingExact) {
  // "r(A, B) v q(x)": the r-literal is fully ground and true in the
  // evidence, so the anti-join prunes every binding of x (match-all).
  // The pruned rows must still be drained and counted, or the
  // resolved+pruned == unpruned invariant breaks.
  auto program = ParseProgram(
      "*r(t, t)\n"
      "q(t)\n"
      "1 r(A, B) v q(x)\n");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  MlnProgram prog = program.TakeValue();
  EvidenceDb evidence;
  ASSERT_TRUE(ParseEvidence("r(A, B)\nq(C)\n", &prog, &evidence).ok());

  auto run = [&](bool antijoin, bool vectorized) {
    OptimizerOptions oopts;
    oopts.enable_antijoin_pruning = antijoin;
    oopts.enable_vectorized = vectorized;
    BottomUpGrounder g(prog, evidence, GroundingOptions{}, oopts);
    auto r = g.Ground();
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.TakeValue();
  };
  GroundingResult pruned_vec = run(true, true);
  GroundingResult pruned_vol = run(true, false);
  GroundingResult unpruned = run(false, true);

  EXPECT_EQ(pruned_vec.clauses.num_clauses(), unpruned.clauses.num_clauses());
  EXPECT_GT(pruned_vec.stats.pruned_by_antijoin, 0u);
  EXPECT_EQ(pruned_vec.stats.candidates, 0u);  // everything pruned in-plan
  EXPECT_EQ(pruned_vec.stats.candidates + pruned_vec.stats.pruned_by_antijoin,
            unpruned.stats.candidates);
  EXPECT_EQ(pruned_vec.stats.pruned_by_antijoin,
            pruned_vol.stats.pruned_by_antijoin);
  EXPECT_EQ(pruned_vec.stats.candidates, pruned_vol.stats.candidates);
}

// ---------------------------------------------- evidence relations

/// Sorted row set of one evidence relation.
std::multiset<std::vector<int64_t>> RowSet(const IdTable& t) {
  std::multiset<std::vector<int64_t>> out;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    std::vector<int64_t> row;
    for (size_t c = 0; c < t.num_cols(); ++c) row.push_back(t.col(c)[r]);
    out.insert(std::move(row));
  }
  return out;
}

/// The test's own record of the evidence: atom -> truth.
struct AtomLess {
  bool operator()(const GroundAtom& a, const GroundAtom& b) const {
    return std::tie(a.pred, a.args) < std::tie(b.pred, b.args);
  }
};
using EvidenceModel = std::map<GroundAtom, bool, AtomLess>;

/// The model's atoms of one predicate and polarity, as rows.
std::multiset<std::vector<int64_t>> ModelRowSet(const EvidenceModel& model,
                                                PredicateId pred, bool truth) {
  std::multiset<std::vector<int64_t>> out;
  for (const auto& [atom, t] : model) {
    if (atom.pred == pred && t == truth) {
      out.insert(std::vector<int64_t>(atom.args.begin(), atom.args.end()));
    }
  }
  return out;
}

GroundAtom PairAtom(PredicateId pred, ConstantId a, ConstantId b) {
  GroundAtom g;
  g.pred = pred;
  g.args = {a, b};
  return g;
}

/// Checks `db` against `model` over predicates 0 and 1 and the argument
/// universe [0, n)^2: every (predicate, polarity) row multiset, every
/// Lookup (explicit truth, closed-world default, or unknown), and the
/// row total.
void ExpectMatchesModel(const MlnProgram& program, const EvidenceDb& db,
                        const EvidenceModel& model, ConstantId n) {
  for (PredicateId p : {0, 1}) {
    for (bool truth : {false, true}) {
      EXPECT_EQ(RowSet(db.rows(p, truth)), ModelRowSet(model, p, truth))
          << "pred " << p << " truth " << truth;
      EXPECT_TRUE(db.rows(p, truth).narrow());
    }
    for (ConstantId a = 0; a < n; ++a) {
      for (ConstantId b = 0; b < n; ++b) {
        const GroundAtom g = PairAtom(p, a, b);
        const auto it = model.find(g);
        const Truth want =
            it != model.end() ? (it->second ? Truth::kTrue : Truth::kFalse)
            : program.predicate(p).closed_world ? Truth::kFalse
                                                : Truth::kUnknown;
        ASSERT_EQ(db.Lookup(program, g), want)
            << "pred " << p << " args " << a << "," << b;
      }
    }
  }
  EXPECT_EQ(db.num_evidence(), model.size());
}

/// Predicate 0 is closed-world, predicate 1 open-world.
MlnProgram ChurnProgram() {
  auto parsed = ParseProgram("*p(t, t)\nq(t, t)\n");
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return parsed.TakeValue();
}

TEST(EvidenceDbTest, RowsEqualTheMapUnderChurn) {
  const MlnProgram program = ChurnProgram();
  constexpr ConstantId kN = 64;
  EvidenceDb db;
  EvidenceModel model;
  Rng rng(11);
  // Random add / overwrite / flip / remove churn, mostly adds and mostly
  // true, so p's true relation passes 2048 rows and its index grows
  // through three doublings from 1024 slots; removals of absent atoms
  // are no-ops.
  size_t peak_rows = 0;
  for (int step = 0; step < 20000; ++step) {
    GroundAtom g = PairAtom(static_cast<PredicateId>(rng.Uniform(2)),
                            static_cast<ConstantId>(rng.Uniform(kN)),
                            static_cast<ConstantId>(rng.Uniform(kN)));
    if (rng.Uniform(5) != 0) {
      const bool truth = rng.Uniform(5) != 0;
      db.Add(g, truth);
      model[g] = truth;
    } else {
      EXPECT_EQ(db.Remove(g), model.erase(g) == 1);
    }
    peak_rows = std::max(peak_rows, db.rows(0, true).num_rows());
    if (step % 5000 == 4999) ExpectMatchesModel(program, db, model, kN);
  }
  EXPECT_GT(peak_rows, 2048u);
  ExpectMatchesModel(program, db, model, kN);
  // entries() yields every row once, with its truth.
  EvidenceModel listed;
  for (const auto& [atom, truth] : db.entries()) {
    EXPECT_TRUE(listed.emplace(atom, truth).second);
  }
  EXPECT_EQ(listed, model);
  // A predicate the database never saw has no rows, of either polarity.
  EXPECT_EQ(db.rows(7, true).num_rows(), 0u);
  EXPECT_EQ(db.rows(7, false).num_cols(), 0u);
}

TEST(EvidenceDbTest, CopyHasItsOwnRows) {
  const MlnProgram program = ChurnProgram();
  EvidenceDb db;
  EvidenceModel model;
  for (const auto& [g, truth] :
       {std::pair{PairAtom(0, 1, 2), true}, std::pair{PairAtom(0, 3, 4), true},
        std::pair{PairAtom(0, 5, 6), false}}) {
    db.Add(g, truth);
    model[g] = truth;
  }
  EXPECT_FALSE(db.Remove(PairAtom(0, 9, 9)));  // absent: a no-op
  EvidenceModel copy_model = model;

  EvidenceDb copy = db;
  copy.Add(PairAtom(0, 7, 8), true);   // append
  copy.Remove(PairAtom(0, 1, 2));      // swap-remove through the index
  copy.Add(PairAtom(0, 5, 6), true);   // flip false -> true
  copy_model[PairAtom(0, 7, 8)] = true;
  copy_model.erase(PairAtom(0, 1, 2));
  copy_model[PairAtom(0, 5, 6)] = true;
  // None of that reaches the original's relations.
  ExpectMatchesModel(program, db, model, 10);
  ExpectMatchesModel(program, copy, copy_model, 10);
  EXPECT_EQ(copy.rows(0, true).num_rows(), 3u);
  EXPECT_EQ(copy.rows(0, false).num_rows(), 0u);

  // And the original's later mutations do not reach the copy.
  db.Remove(PairAtom(0, 3, 4));
  model.erase(PairAtom(0, 3, 4));
  ExpectMatchesModel(program, db, model, 10);
  ExpectMatchesModel(program, copy, copy_model, 10);
}

TEST(EvidenceDbTest, RowsKeepInsertionOrder) {
  EvidenceDb db;
  for (ConstantId i : {5, 3, 9, 1}) db.Add(PairAtom(0, i, i), true);
  const IdTable& rows = db.rows(0, true);
  ASSERT_EQ(rows.num_cols(), 2u);
  EXPECT_EQ(rows.col(0), (std::vector<int64_t>{5, 3, 9, 1}));
  // A removal moves the last row into the hole.
  db.Remove(PairAtom(0, 3, 3));
  EXPECT_EQ(db.rows(0, true).col(0), (std::vector<int64_t>{5, 1, 9}));
}

TEST(EvidenceDbTest, EntriesWalkTheRowsInOrder) {
  EvidenceDb db;
  db.Add(PairAtom(1, 4, 4), true);
  db.Add(PairAtom(0, 2, 2), true);
  db.Add(PairAtom(1, 3, 3), false);
  db.Add(PairAtom(0, 1, 1), true);
  db.Add(PairAtom(0, 5, 5), false);
  db.Add(PairAtom(3, 6, 6), true);  // predicate 2 never gets a row
  // Predicate ascending, false rows before true rows, each in row order.
  using Entry = std::pair<GroundAtom, bool>;
  const std::vector<Entry> listed(db.entries().begin(), db.entries().end());
  const std::vector<Entry> want = {
      {PairAtom(0, 5, 5), false}, {PairAtom(0, 2, 2), true},
      {PairAtom(0, 1, 1), true},  {PairAtom(1, 3, 3), false},
      {PairAtom(1, 4, 4), true},  {PairAtom(3, 6, 6), true}};
  EXPECT_TRUE(listed == want);
  EXPECT_EQ(db.Explicit(PairAtom(1, 3, 3)), Truth::kFalse);
  EXPECT_EQ(db.Explicit(PairAtom(0, 1, 1)), Truth::kTrue);
  EXPECT_EQ(db.Explicit(PairAtom(0, 9, 9)), Truth::kUnknown);
  EXPECT_EQ(db.Explicit(PairAtom(2, 1, 1)), Truth::kUnknown);  // no rows
  EXPECT_EQ(db.Explicit(PairAtom(9, 1, 1)), Truth::kUnknown);  // unseen
  const EvidenceDb empty;
  EXPECT_TRUE(empty.entries().begin() == empty.entries().end());
}

// ----------------------------------------------- serving maintenance

struct ServeInput {
  MlnProgram program;
  EvidenceDb evidence;
};

/// A program with an open-world predicate `a` and a closed-world
/// predicate `b` whose evidence we can grow arbitrarily; the second rule
/// joins b's true rows as a binding literal.
ServeInput MakeServeInput(int b_rows) {
  auto program = ParseProgram(
      "a(t)\n"
      "*b(t, t)\n"
      "2 a(x) => a(y)\n"
      "1 b(x, y), a(x) => a(y)\n");
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  ServeInput in;
  in.program = program.TakeValue();
  std::string ev;
  for (int i = 0; i < 8; ++i) ev += "a(C" + std::to_string(i) + ")\n";
  for (int i = 0; i < b_rows; ++i) {
    ev += "b(C" + std::to_string(i % 8) + ", C" + std::to_string(i / 8 % 8) +
          ")\n";
  }
  Status st = ParseEvidence(ev, &in.program, &in.evidence);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return in;
}

TEST(ServingSideTableTest, DeltaMaintenanceIgnoresUntouchedEvidence) {
  // Same program, same delta; the second database carries ~8x the
  // evidence on a predicate the delta never touches. Per-delta table
  // maintenance must not see the difference (the pre-side-table
  // implementation rescanned the whole evidence map per delta, so this
  // count scaled with |evidence|).
  ServeInput small = MakeServeInput(8);
  ServeInput big = MakeServeInput(64);
  ASSERT_GT(big.evidence.num_evidence(), small.evidence.num_evidence() + 40);

  auto run_delta = [](ServeInput& in) {
    DeltaGrounder dg(in.program, GroundingOptions{}, OptimizerOptions{});
    Status st = dg.Initialize(in.evidence);
    EXPECT_TRUE(st.ok()) << st.ToString();
    EvidenceDelta delta;
    GroundAtom g;
    g.pred = in.program.FindPredicate("a").value();
    g.args = {in.program.symbols().Find("C0")};
    delta.Assert(g, false);
    auto r = dg.ApplyDelta(delta);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.TakeValue();
  };
  GroundEdits small_edits = run_delta(small);
  GroundEdits big_edits = run_delta(big);
  EXPECT_GT(small_edits.maintenance_rows, 0u);
  EXPECT_EQ(small_edits.maintenance_rows, big_edits.maintenance_rows);
}

TEST(ServingSideTableTest, DeltaMaintenanceIgnoresTouchedRelationSize) {
  // This time the delta touches the closed-world `b` itself, whose
  // relation is 8x larger in the second database. Binding literals scan
  // b's side table in place and the union relation borrows it as a
  // segment, so per-delta maintenance materializes the delta's own rows
  // only — never a copy of the touched relation.
  ServeInput small = MakeServeInput(8);
  ServeInput big = MakeServeInput(64);

  auto run_delta = [](ServeInput& in) {
    DeltaGrounder dg(in.program, GroundingOptions{}, OptimizerOptions{});
    Status st = dg.Initialize(in.evidence);
    EXPECT_TRUE(st.ok()) << st.ToString();
    EvidenceDelta delta;
    GroundAtom g;
    g.pred = in.program.FindPredicate("b").value();
    const ConstantId c0 = in.program.symbols().Find("C0");
    g.args = {c0, c0};
    delta.Retract(g);  // present in both databases
    auto r = dg.ApplyDelta(delta);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.TakeValue();
  };
  GroundEdits small_edits = run_delta(small);
  GroundEdits big_edits = run_delta(big);
  EXPECT_EQ(small_edits.rules_reground, 1u);
  EXPECT_EQ(big_edits.rules_reground, 1u);
  EXPECT_GT(small_edits.maintenance_rows, 0u);
  EXPECT_EQ(small_edits.maintenance_rows, big_edits.maintenance_rows);
}

TEST(ServingSideTableTest, NoOpDeltaTouchesNothing) {
  ServeInput in = MakeServeInput(8);
  DeltaGrounder dg(in.program, GroundingOptions{}, OptimizerOptions{});
  ASSERT_TRUE(dg.Initialize(in.evidence).ok());
  EvidenceDelta delta;
  GroundAtom g;
  g.pred = in.program.FindPredicate("a").value();
  g.args = {in.program.symbols().Find("C0")};
  delta.Assert(g, true);  // already true: semantic no-op
  auto r = dg.ApplyDelta(delta);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().no_op);
  EXPECT_EQ(r.value().maintenance_rows, 0u);
}

}  // namespace
}  // namespace tuffy
